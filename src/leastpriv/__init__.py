"""Least-privilege container policies from emulated-environment traces.

The pipeline: describe launch-option grammars (options), compose
environments and plans (environment), replay collector traces into
per-namespace event counts (monitor), discover environment-sensitive
events by option mutation and pair inference (explorer, simharness),
score and synthesize policies under operator targets (decision), and
render seccomp profiles plus capability flags (emitter).
"""
