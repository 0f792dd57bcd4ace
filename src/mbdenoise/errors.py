"""Exception hierarchy shared across the toolkit.

The CLI maps these onto process exit codes: ConfigError -> 1,
DataError -> 2, NumericError -> 3; an OSError (a file that cannot be
read or written) is a data error too, exit 2.
"""


class MbDenoiseError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(MbDenoiseError):
    """Invalid configuration value or unusable run setup."""


class DataError(MbDenoiseError):
    """Corpus, file, or dataset problem (missing, malformed, inconsistent)."""


class NumericError(MbDenoiseError):
    """Non-finite values or numerically impossible requests."""


class WavError(DataError):
    """Base class for WAV container problems."""


class MalformedWavError(WavError):
    """File is not a readable RIFF/WAVE container."""


class UnsupportedWavError(WavError):
    """Well-formed WAV in an encoding this toolkit does not handle."""


class ChannelCountError(WavError):
    """WAV has more than one channel; only mono is supported."""


class EmptyDataError(WavError):
    """WAV data chunk holds zero samples."""
