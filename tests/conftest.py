from hypothesis import settings

# Every property test is deterministic and free of wall-clock deadlines, so a
# slow or shared machine neither changes which examples run nor fails a test
# on time alone.  A test's own @settings still overrides these values.
settings.register_profile("singhunt", derandomize=True, deadline=None)
settings.load_profile("singhunt")
