"""Reference implementations the engines in ``src/`` are checked against."""
