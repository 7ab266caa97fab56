"""Code-smell evolution analytics.

Detect threshold smells per version, track each instance's life across a
version history, run censored survival statistics over the lifetimes, and
flag anomalies in the evolution of smell density.

The supported interface is the ``smellsurv`` command (``smellsurv.cli``) and
its exit codes; the modules are internal.
"""
