"""qstoch: memory cost of simulating a two-switch stochastic process,
classically and with non-orthogonal qubit encodings, at desk scale.  The
root binds only __version__: import each name from its own module."""

__version__ = "0.1.0"
