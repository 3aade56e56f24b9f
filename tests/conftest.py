import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # fixed examples and no example database, so every run draws the same cases
    settings.register_profile("bdris", derandomize=True, database=None)
    settings.load_profile("bdris")


def pytest_configure(config):
    config._acceptance_lines = []


@pytest.fixture
def acceptance(request):
    """Record one PASS/FAIL line per acceptance criterion for the summary."""

    def record(criterion: int, ok: bool, details: str) -> str:
        line = f"ACCEPTANCE criterion {criterion}: {'PASS' if ok else 'FAIL'} - {details}"
        request.config._acceptance_lines.append((criterion, line))
        return line

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
