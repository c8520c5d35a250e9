"""Hypothesis profiles: ``--hypothesis-profile=ci`` draws the same examples
on every run, so a property failure on CI reproduces locally."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
