"""Multilingual extractive-QA data synthesis, filtering, tuning, and evaluation."""

__version__ = "0.1.0"

_MODULES = ("backends", "cli", "corpus", "metrics", "promptkit", "synthesis", "taxonomy", "tuner")


def __getattr__(name: str):
    """`qasynth.<module>` imports the module on first access.

    `import qasynth.cli` loads only the modules the CLI needs at start-up,
    yet every module stays reachable as an attribute of the package.
    """
    if name in _MODULES:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
