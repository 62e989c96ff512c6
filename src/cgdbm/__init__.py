"""Centered Gaussian-binary deep Boltzmann machine library.

Core model math lives in cgdbm.model, exact small-model oracles in
cgdbm.exact, the training loop in cgdbm.training, free-running sampling in
cgdbm.sampling, patch/whitening/grating utilities in cgdbm.stimuli, and the
correlation / map / SOM analyses in cgdbm.analysis.  cgdbm.cli wires the
pipeline together behind the `cgdbm` command.  Import names from those
submodules; the package re-exports nothing.
"""

__version__ = "0.1.0"
