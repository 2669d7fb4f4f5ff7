"""Design pipeline for SNAIL-based traveling-wave parametric amplifiers.

Four stages: a linear S-parameter sweep over fabrication parameters, a
Gaussian-process surrogate search for the best device, a coupled-mode
estimate of the three-wave-mixing gain at its working point, and a report.

Import names from their submodules (``from twpaopt.network import
cascade``); the package itself imports none of them.  Only ``bayesopt``,
which ``pipeline`` and ``cli`` import, loads scipy, so a process that runs
the simulator layers alone never pays for it.
"""

__version__ = "0.1.0"
