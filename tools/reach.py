"""Print each function of the package that no command runs.

    PYTHONPATH=src python tools/reach.py > reach.txt
    diff tools/reach.expected reach.txt

A ``sys.setprofile`` hook records every code object called while this
process imports the package and then runs, in-process, the commands of
``tools/cli_tree.sh`` (through ``cli.main``, the console script's entry)
and one seeded set-up and fit of each benchmark workload at
``workloads.SMOKE`` (``perfbench/workloads.py``). It prints, as
``module:qualname``, one a line and sorted, each function and method
defined in the package's source that none of them called; a count goes to
standard error. ``tools/reach.expected`` holds the list: a path that no
command takes joins it, and one that gains a caller or goes leaves it.
"""

import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: the seed of the workloads' set-up and fit, as in perfbench's smoke test
SEED = 3


def cli_tree_commands(out: str) -> list[list[str]]:
    """The arguments of each command of ``tools/cli_tree.sh`` writing into
    ``out``, in order, read from the script run with ``CF=echo``."""
    if any(c.isspace() for c in out):
        raise ValueError(f"{out!r}: the echoed commands split on spaces")
    script = subprocess.run(
        ["bash", str(ROOT / "tools" / "cli_tree.sh"), out],
        env={**os.environ, "CF": "echo"}, capture_output=True, text=True,
        check=True)
    return [line.split() for line in script.stdout.splitlines()]


def run_commands(workdir: str) -> None:
    from contactfatigue import cli

    for argv in cli_tree_commands(os.path.join(workdir, "tree")):
        sys.argv = ["contactfatigue", *argv]
        try:
            cli.main()
        except SystemExit as exc:
            if exc.code:
                raise RuntimeError(f"contactfatigue {' '.join(argv)} "
                                   f"exited {exc.code}") from exc

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for name in ("gam-fit", "longitudinal-fit", "brc-map"):
        workload = workloads.make(name, workloads.SMOKE, workdir)
        workload.setup(SEED, workloads.Stages())
        op = workloads.Op(seed=SEED)
        workload.run(op, None, None, workloads.Stages())
        # a failed accuracy check is a result; an exception is not
        if op.error:
            raise RuntimeError(f"{name} raised:\n{op.traceback}")


def import_modules(package) -> list:
    """The package and every module under it, imported."""
    return [package] + [importlib.import_module(info.name)
                        for info in pkgutil.walk_packages(
                            package.__path__, f"{package.__name__}.")]


def package_functions(modules: list) -> dict:
    """The code object of each function and method that ``modules`` (the
    first being the package) define in the package's source, with its
    ``module:qualname``; a decorated one by the function it wraps."""
    root = pathlib.Path(modules[0].__file__).parent
    found = {}
    for module in modules:
        candidates = []
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for member in vars(obj).values():
                    if isinstance(member, property):
                        candidates += [member.fget, member.fset, member.fdel]
                    else:
                        candidates.append(getattr(member, "__func__",
                                                  member))
            else:
                candidates.append(obj)
        for fn in candidates:
            if not inspect.isfunction(fn):
                continue
            fn = inspect.unwrap(fn)
            if pathlib.Path(fn.__code__.co_filename).is_relative_to(root):
                found[fn.__code__] = f"{module.__name__}:{fn.__qualname__}"
    return found


def main() -> None:
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(record)
    try:
        import contactfatigue

        modules = import_modules(contactfatigue)
        with tempfile.TemporaryDirectory() as workdir:
            run_commands(workdir)
    finally:
        sys.setprofile(None)
    functions = package_functions(modules)
    unrun = sorted(name for code, name in functions.items()
                   if code not in seen)
    print(f"{len(functions) - len(unrun)} of {len(functions)} package "
          "functions ran", file=sys.stderr)
    print("\n".join(unrun))


if __name__ == "__main__":
    main()
