"""Shared test helpers."""

from __future__ import annotations

from typing import Any, List, Tuple

import pytest

from repro.minijava import compile_source
from repro.vm import Interpreter


def run_source(source: str, main_class: str = "Main") -> Tuple[Any, List[str]]:
    """Compile and run MiniJava source; return (main result, println output).

    Class initializers are executed first (in sorted class order), mimicking
    build-time initialization followed by a run.
    """
    program = compile_source(source, main_class=main_class)
    interp = Interpreter(program)
    for name in sorted(program.classes):
        clinit = program.classes[name].clinit
        if clinit is not None:
            interp.run_single(clinit)
    thread = interp.spawn_main()
    interp.run()
    return thread.result, interp.output


@pytest.fixture
def run():
    return run_source


@pytest.fixture(autouse=True)
def _reset_obs():
    """Isolate each test from the process-wide metrics and run records."""
    from repro.obs import get_event_log, get_registry

    get_registry().reset()
    get_event_log().reset()
    yield
