"""Exception types shared across the package, and the cap on what a
command will list."""

# The most items one listing may hold: the chains of one degree, or the
# normal words up to a length. Counts known before listing are checked
# against it, so that no command builds a list it cannot hold.
MAX_ITEMS = 10 ** 6


class AnickError(Exception):
    """Base class for package-specific errors."""


class ZeroPolynomial(AnickError):
    """Leading data requested for the zero polynomial."""


class ZeroElement(AnickError):
    """Leading data requested for the zero module element."""


class InvalidPresentation(AnickError):
    """Presentation violates a structural requirement."""


class BoundExceeded(AnickError):
    """Degree bound too small for the requested computation, or a listing
    above MAX_ITEMS."""


def require_listable(count, what):
    """Raise BoundExceeded when count items of what exceed MAX_ITEMS."""
    if count > MAX_ITEMS:
        raise BoundExceeded("%d %s exceed the cap of %d items"
                            % (count, what, MAX_ITEMS))


class NotGroebner(AnickError):
    """Rewrite system failed the overlap confluence check."""


class NotMinimal(AnickError):
    """Rule leading monomials do not form an anti-chain."""


class NotAnOim(AnickError):
    """Word set is not downward closed under the subword order."""


class NotAnAntichain(AnickError):
    """Word set contains two comparable words."""


class NotInKernel(AnickError):
    """The lift stopped at word, a string no chain-graph edge starts: the
    element lifted was not a cycle."""

    def __init__(self, word):
        super().__init__("no obstruction occurrence in the reducible part of "
                         "%s; input was outside the kernel" % word)
        self.word = word


class NonTermination(AnickError):
    """A lift guard tripped: the differential lifted through is broken."""
