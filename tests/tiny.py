"""The tiny run configuration shared by the CLI tests and gate a10.

Format it with the corpus directory: ``TINY_CFG.format(corpus=...)``.
"""

TINY_CFG = """
seed = 11

[data]
image_dir = {corpus}
patch_side = 6
n_patches = 800
train_fraction = 0.9
pca_k = 20

[model]
L = 20
M = 12
N = 4

[training]
epochs_max = 2
batch_size = 60
patience = 5

[sampling]
n_chains = 5
n_iterations = 40
record_every = 10

[analysis]
alpha = 0.05
threshold_n = 12
som_nodes = 8
som_epochs = 3
som_radius_start = 2.0
"""
