"""The public surface: tolerances are module constants, never parameters."""

import importlib
import inspect
import pkgutil

import xdoily


def _public_callables():
    """(qualified name, callable) for every public function, class and method defined in xdoily."""
    for info in pkgutil.iter_modules(xdoily.__path__):
        module = importlib.import_module(f"xdoily.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):  # its constructor is its __init__
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # class and static methods
                    if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_")):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_public_callable_takes_a_tolerance():
    seen = dict(_public_callables())
    assert {"xdoily.spectra.classify_batch", "xdoily.states.Group2Params.__init__"} <= seen.keys()
    knobs = [
        f"{qualname}({param})"
        for qualname, obj in seen.items()
        for param in inspect.signature(obj).parameters
        if "tol" in param.lower()
    ]
    assert knobs == []
