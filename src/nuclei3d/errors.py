"""Exception types shared across the toolkit."""


class Nuclei3dError(Exception):
    """Base class for all toolkit errors."""


class ShapeMismatchError(Nuclei3dError):
    """Two shapes that must agree do not."""


class ChannelCountError(ShapeMismatchError):
    """An argument is not the kind asked for, or a volume has the wrong channel count."""


class InvalidClassError(Nuclei3dError):
    """A classification target contains values outside its legal class set."""


class FormatError(Nuclei3dError):
    """Base class for file-format errors."""


class BadMagicError(FormatError):
    """File does not start with the expected magic tag."""


class UnsupportedVersionError(FormatError):
    """File declares a format version this reader does not understand."""


class UnsupportedDtypeError(FormatError):
    """Requested or declared element type is not supported by the format."""


class TruncatedPayloadError(FormatError):
    """Declared sizes disagree with the actual payload length."""


class MalformedRowError(FormatError):
    """A detection CSV row cannot be parsed; the message names the line."""


class PlacementError(Nuclei3dError):
    """Phantom generation could not place all instances."""
