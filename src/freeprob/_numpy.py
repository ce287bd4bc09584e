"""numpy, imported on first use.

The exact subcommands (``kesten``, ``cumulants``, ``wick``, ``weingarten``,
``freeconv --route moments``) compute in Fractions and ints, and numpy's
import is most of what their process would otherwise spend.  The modules
that need numpy take ``np`` from here instead of importing it at their top:
the first attribute read imports numpy and binds that attribute on the proxy,
so every later ``np.foo`` is a plain instance-attribute hit.

The proxy is not placed in ``sys.modules``: ``"numpy" in sys.modules`` still
tells whether numpy has been imported.
"""


class _LazyNumpy:
    def __getattr__(self, name: str):
        # runs only for names not yet bound on the instance
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _LazyNumpy()
