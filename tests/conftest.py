"""Hypothesis profiles.  `HYPOTHESIS_PROFILE=ci` draws every example from a
fixed seed and turns the per-example deadline off, so a counterexample found
in CI comes out the same when the suite is re-run locally with that variable."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
