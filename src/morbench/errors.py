"""Exception types shared across the pipeline.

User-facing input problems (bad corpus files, bad configs, bad vector
files) raise MorbenchError subclasses; the CLI maps those to exit code 2.
Contract violations inside the library (shape mismatches and the like)
raise plain ValueError and surface as internal failures (exit code 1).
"""


class MorbenchError(Exception):
    """Base class for errors caused by user-supplied inputs."""


class CorpusError(MorbenchError):
    """Malformed or inconsistent corpus / dataset file."""


class VectorFileError(MorbenchError):
    """Malformed word-vector file."""


class ConfigError(MorbenchError):
    """Invalid configuration value, unreadable input file or unwritable output path."""
