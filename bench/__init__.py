"""The frozen end-to-end benchmark (see bench/README.md)."""
