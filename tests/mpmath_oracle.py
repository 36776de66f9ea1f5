"""mpmath as the test oracle of the interval kernel: its raw intervals and
mpf endpoints in the kernel's (m, e) form."""

from mpmath.libmp import finf, fnan, fninf, fzero


def endpoint_of(x):
    """The mpf x as the endpoint (m, e) = m * 2^e, with m odd as in an
    mpf, or (0, 0).  An infinity or NaN has no such form and raises."""
    if x in (finf, fninf, fnan):
        raise ValueError("endpoint %r is not finite" % (x,))
    if x == fzero:
        return 0, 0
    sign, man, exp, _ = x
    return (-man if sign else man), exp


def ival_of(mpi):
    """The raw mpmath interval `mpi` (``iv.mpf(...)._mpi_``) as an
    endpoint pair."""
    return endpoint_of(mpi[0]), endpoint_of(mpi[1])
