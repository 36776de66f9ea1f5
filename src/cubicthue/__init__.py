"""Certified desk-scale verification engine for the parametric cubic
Thue equation family F_{3,t}(x,y)=1: exact form arithmetic, enclosure
numerics, root/kappa certification, unit-exponent recovery, linear-form
bounds, Baker-Davenport reduction, and bounded solution search."""

from .forms import BinaryCubicForm, SolutionSet, family_form, known_solutions
from .realnum import CertifiedReal, Convergent
from .roots import RootTriple, isolate_roots, verify_kappas
from .exponents import ExponentPair, SolutionType, classify, recover_exponents
from .reduction import ReductionInstance, Verdict, baker_davenport, build_instance
from .search import SearchReport, thue_solutions_bruteforce, verify_theorem

__version__ = "1.0.0"

__all__ = [
    "BinaryCubicForm", "SolutionSet", "family_form", "known_solutions",
    "CertifiedReal", "Convergent",
    "RootTriple", "isolate_roots", "verify_kappas",
    "ExponentPair", "SolutionType", "classify", "recover_exponents",
    "ReductionInstance", "Verdict", "baker_davenport", "build_instance",
    "SearchReport", "thue_solutions_bruteforce", "verify_theorem",
    "__version__",
]
