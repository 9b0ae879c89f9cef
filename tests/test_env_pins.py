"""Configuration comes from :class:`JitConfig` alone.

Six fields choose between a reference and an alternative and default to
the reference; the engine reads them at construction and rejects a
string-valued field outside its two values. No module reads the
environment except ``repro/jit/config.py``, for the dump-on-crash path.
"""

import os
import re

import pytest

from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from repro.serve import ServiceConfig, TenantSpec, VMService
from tests.helpers import shapes_program

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def test_defaults_are_the_references():
    config = JitConfig()
    assert config.interp_predecode is False
    assert config.speculate is False
    assert config.typespec is False
    assert config.osr is False
    assert config.backend == "machine"
    assert config.compile_mode == "sync"
    engine = Engine(shapes_program(), config)
    assert engine.interpreter.predecode is False
    assert engine.backend == "machine"
    assert engine.compiler.backend == "machine"
    assert engine.interpreter.osr_hook is None
    assert engine.compile_mode == "sync"
    speculation = engine.compiler.context.speculation
    assert not speculation.enabled
    assert not speculation.typecheck


@pytest.mark.parametrize("field,value,choices", [
    ("backend", "pyy", ("machine", "py")),
    ("compile_mode", "asnyc", ("sync", "async")),
], ids=["backend", "compile_mode"])
def test_unknown_value_fails_engine_construction(field, value, choices):
    with pytest.raises(ValueError) as info:
        Engine(shapes_program(), JitConfig(**{field: value}))
    message = str(info.value)
    assert field in message and repr(value) in message
    assert all(repr(choice) in message for choice in choices)


def test_unknown_compile_mode_fails_admission():
    service = VMService(ServiceConfig(compile_mode="asycn"))
    with pytest.raises(ValueError, match="compile_mode"):
        service.admit(TenantSpec("t", program=shapes_program()))
    assert service.tenants == {}


def test_fields_are_resolved_at_construction():
    # The fuzz oracle and bisector edit config fields after building a
    # config, so nothing may be read earlier than the engine.
    config = JitConfig()
    config.backend = "py"
    config.compile_mode = "async"
    engine = Engine(shapes_program(), config)
    try:
        assert engine.backend == "py"
        assert engine.compiler.backend == "py"
        assert engine.compile_mode == "async"
    finally:
        engine.shutdown()


# ----------------------------------------------------------------------
# One reader: only repro/jit/config.py touches the environment, and only
# for REPRO_FLIGHT_DUMP
# ----------------------------------------------------------------------

ENV_ACCESS = re.compile(r"\b(environ|getenv|putenv)\b")

#: Modules allowed to read the environment, and the token every such
#: line must carry.
READERS = {
    os.path.join("repro", "jit", "config.py"): "REPRO_FLIGHT_DUMP",
}


def test_only_config_reads_the_environment():
    offenders = []
    for directory, _, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            module = os.path.relpath(path, SRC)
            allowed = READERS.get(module)
            with open(path, encoding="utf-8") as handle:
                for number, line in enumerate(handle, 1):
                    if not ENV_ACCESS.search(line):
                        continue
                    if allowed and allowed in line:
                        continue
                    offenders.append("%s:%d" % (module, number))
    assert offenders == []


def test_config_reads_only_table_variables():
    # A reader module names no REPRO_* variable but its READERS token.
    for module, token in READERS.items():
        with open(os.path.join(SRC, module), encoding="utf-8") as handle:
            names = set(re.findall(r"REPRO_[A-Z_]+", handle.read()))
        assert names == {token}, module
