"""The suite's hypothesis profile, loaded before any test module builds
its settings from it.

It leaves out the explain phase.  That phase only annotates a failing
example, and hypothesis 6.155 can fail an assertion of its own in it
(``shrinker.py:584``), which then hides the example.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "suite", phases=[phase for phase in Phase if phase is not Phase.explain])
settings.load_profile("suite")
