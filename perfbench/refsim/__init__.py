"""Frozen copy of pite_sim (src/pite_sim without the CLI) as of the commit
that introduced the benchmark. The benchmark times it next to the program
under test to measure the host's speed (see reference.py); it is never
edited, so that no change to pite-sim moves it."""
