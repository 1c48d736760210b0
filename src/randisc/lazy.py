"""A stand-in for numpy that imports it at first use.

The exact-arithmetic modules (moments, stein, locallimits) never call numpy,
so a process that runs only them should not pay for importing it.  rng and
solver bind `np = LazyNumpy(globals())` instead of importing numpy: the
first attribute read imports numpy and rebinds that module's `np` to numpy
itself, so every later read is a plain global lookup.  The import statement
holds Python's import lock for numpy while numpy runs, so threads that make
their first read at once all wait for one fully built numpy.
"""


class LazyNumpy:
    """Stands in for numpy in one module's namespace until first used.

    on_load(numpy), when given, runs before `np` is rebound, so a thread that
    finds numpy in `np` also finds what on_load built.  Two threads may both
    run it; it must set the same values each time."""

    __slots__ = ("_namespace", "_on_load")

    def __init__(self, namespace, on_load=None):
        self._namespace = namespace
        self._on_load = on_load

    def __getattr__(self, name):
        import numpy

        if self._on_load is not None:
            self._on_load(numpy)
        self._namespace["np"] = numpy
        return getattr(numpy, name)
