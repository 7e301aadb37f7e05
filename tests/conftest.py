import pytest

from fusioncat import CharacterAlgebra, catalog_get, catalog_names

# one criterion = one line in the terminal summary, outside stdout capture
_criterion_lines = []


def record_criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number:02d} {name}: {status}"
    if detail:
        line += f"  ({detail})"
    _criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)


def replaced(record, **changes):
    """A copy of a read-only slotted record with the given fields changed."""
    fields = (f for f in type(record).__slots__ if f != "__dict__")
    return type(record)(**{f: changes.pop(f, getattr(record, f)) for f in fields}, **changes)


@pytest.fixture(scope="session")
def algs():
    """One CharacterAlgebra per catalog entry, shared so caches persist."""
    return {name: CharacterAlgebra(catalog_get(name)) for name in catalog_names()}
