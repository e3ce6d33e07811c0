from hypothesis import settings

# Every property test runs derandomized, with no example database and no
# deadline, also one that sets no @settings of its own.
settings.register_profile("exactla", derandomize=True, database=None, deadline=None)
settings.load_profile("exactla")
