"""Physical constants used throughout the package.

h and e are exact in the 2019 SI; the vacuum permittivity is the CODATA
2022 value.  These are the numbers scipy.constants returns (scipy 1.17),
written as literals so that importing the package does not import
scipy.constants.  Everything downstream treats them as frozen numbers so
that results are bit-reproducible across runs.
"""

import numpy as np

#: Planck constant, in J s.
_PLANCK = 6.62607015e-34

#: Elementary charge, in C.
_ELEMENTARY_CHARGE = 1.602176634e-19

#: Magnetic flux quantum h / 2e, in Wb.
FLUX_QUANTUM = _PLANCK / (2.0 * _ELEMENTARY_CHARGE)

#: Reduced flux quantum Phi0 / 2pi, in Wb.
REDUCED_FLUX_QUANTUM = FLUX_QUANTUM / (2.0 * np.pi)

#: Vacuum permittivity, in F/m.
VACUUM_PERMITTIVITY = 8.8541878188e-12
