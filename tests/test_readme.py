"""The README's library example runs against the package as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippet_runs(tmp_path, monkeypatch, capsys):
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    (tmp_path / "circuit.pf").write_text(
        "qubits 3\ncnot 0 1\nrz 0.7 1\nrx 0.25 2\ncnot 1 2\nrz 0.3 2\n"
    )
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(snippet, str(README), "exec"), namespace)
    assert namespace["report"].verified == "yes"
    assert namespace["result"].best_energy <= namespace["result"].initial_energy
    assert "cnot count" in capsys.readouterr().out
