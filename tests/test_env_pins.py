"""The environment pins: one table, one rule, one reader.

Every ``REPRO_*`` pin is a row of :data:`repro.jit.config.PINS`, and
:meth:`JitConfig.resolve` applies the same rule to each: a hard
spelling gives the reference whatever the config says, a soft spelling
gives the alternative only when the field is ``None``, an unset (or
empty) variable leaves the field to decide with ``None`` meaning the
reference, and any other spelling raises. The rule is restated in
:func:`_expected` and checked on every row × spelling × field value, so
a row added to the table is covered here without editing this file.
"""

import os
import re

import pytest

from repro.jit.config import PINS, JitConfig
from repro.jit.engine import Engine
from tests.helpers import shapes_program

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _expected(pin, spelling, value):
    if spelling in pin.hard:
        return pin.reference
    if value is None:
        return pin.alternative if spelling in pin.soft else pin.reference
    return value


CASES = [
    pytest.param(pin, spelling, id="%s-%s" % (pin.field, spelling))
    for pin in PINS
    for spelling in (None,) + pin.hard + pin.soft
]


@pytest.mark.parametrize("pin,spelling", CASES)
def test_pin_rule(monkeypatch, pin, spelling):
    if spelling is None:
        monkeypatch.delenv(pin.env, raising=False)
    else:
        monkeypatch.setenv(pin.env, spelling)
    for value in (None, pin.reference, pin.alternative):
        config = JitConfig(**{pin.field: value})
        assert config.resolve(pin.field) == _expected(pin, spelling, value)
        if pin.compiled:
            config.compile_enabled = False
            assert config.resolve(pin.field) == pin.reference


@pytest.mark.parametrize("pin", PINS, ids=lambda pin: pin.field)
def test_pin_spellings_ignore_case_and_blanks(monkeypatch, pin):
    monkeypatch.setenv(pin.env, " %s " % pin.hard[0].upper())
    assert JitConfig(**{pin.field: pin.alternative}).resolve(
        pin.field
    ) == pin.reference
    monkeypatch.setenv(pin.env, "  ")
    assert JitConfig().resolve(pin.field) == pin.reference


@pytest.mark.parametrize("pin", PINS, ids=lambda pin: pin.field)
def test_unknown_spelling_raises(monkeypatch, pin):
    # A near miss: pyy, asyncc, onn, ...
    monkeypatch.setenv(pin.env, pin.soft[0] + pin.soft[0][-1])
    for value in (None, pin.reference, pin.alternative):
        config = JitConfig(**{pin.field: value})
        with pytest.raises(ValueError) as info:
            config.resolve(pin.field)
        message = str(info.value)
        assert pin.env in message
        assert all(s in message for s in pin.hard + pin.soft)


def test_unknown_spelling_fails_engine_construction(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "pyy")
    with pytest.raises(ValueError, match="REPRO_BACKEND"):
        Engine(shapes_program(), JitConfig(backend="py"))


def test_fields_are_resolved_at_construction(monkeypatch):
    # The fuzz oracle and bisector edit config fields after building a
    # config, so nothing may be resolved earlier than the engine.
    for pin in PINS:
        monkeypatch.delenv(pin.env, raising=False)
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
# One reader: only repro/jit/config.py touches the environment
# ----------------------------------------------------------------------

ENV_ACCESS = re.compile(r"\b(environ|getenv|putenv)\b")

#: Modules allowed to read the environment, and the token every such
#: line must carry (None: any line).
READERS = {
    os.path.join("repro", "jit", "config.py"): None,
    # The REPRO_BENCH_QUICK experiment switch of the cycle-model sweep.
    os.path.join("repro", "bench", "harness.py"): "QUICK_ENV",
}


def test_only_config_reads_the_environment():
    offenders = []
    for directory, _, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            module = os.path.relpath(path, SRC)
            allowed = READERS.get(module, False)
            with open(path, encoding="utf-8") as handle:
                for number, line in enumerate(handle, 1):
                    if not ENV_ACCESS.search(line):
                        continue
                    if allowed is None or (allowed and allowed in line):
                        continue
                    offenders.append("%s:%d" % (module, number))
    assert offenders == []


def test_config_reads_only_table_variables():
    path = os.path.join(SRC, "repro", "jit", "config.py")
    with open(path, encoding="utf-8") as handle:
        names = set(re.findall(r"REPRO_[A-Z_]+", handle.read()))
    assert names == {pin.env for pin in PINS} | {"REPRO_FLIGHT_DUMP"}
