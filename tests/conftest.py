"""Suite-wide hypothesis profile: derandomized, so property tests draw the
same examples on every run (which makes an example database pointless), and
without a deadline, so a slow or busy host cannot fail an example on time
alone."""

from hypothesis import settings

settings.register_profile("d2m", deadline=None, derandomize=True, database=None)
settings.load_profile("d2m")
