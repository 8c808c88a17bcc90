"""The package's exception for broken internal invariants."""


class InternalError(RuntimeError):
    """A guard tripped: a search or an extension produced a result that
    fails its own re-check.  A bug in the package, never a usage error;
    the CLI reports it with exit code 3."""
