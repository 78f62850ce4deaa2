"""Reference oracles the production kernels and the paper's measure
properties are tested against."""
