"""SI physical constants used by the force and free-energy routines.

One fixed set, as module constants rather than a parameter: k_B and c are
exact since the 2019 SI redefinition, and hbar is the CODATA 2018
recommended value.  All quantities are strict SI; unit conversions happen
only at the command-line boundary.
"""

#: Boltzmann constant k_B, J/K (exact since the 2019 SI redefinition).
BOLTZMANN = 1.380_649e-23

#: Reduced Planck constant hbar, J*s (CODATA 2018 recommended value).
REDUCED_PLANCK = 1.054_571_817e-34

#: Speed of light in vacuum c, m/s (exact by definition of the metre).
LIGHT_SPEED = 299_792_458.0
