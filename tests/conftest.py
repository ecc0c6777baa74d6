"""One hypothesis profile for every property test: no deadline, as a
numpy call's time varies with the machine, and derandomized, so that
every run tries the same examples."""

from hypothesis import settings

settings.register_profile("scfde", deadline=None, derandomize=True)
settings.load_profile("scfde")
