"""Reference oracles the production kernels are tested against."""
