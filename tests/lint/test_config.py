"""Configuration: the shipped defaults and project-root discovery."""

from repro.lint.config import LintConfig, find_project_root


def test_defaults_without_pyproject():
    config = LintConfig()
    assert config.paths == ["src"]
    assert config.baseline == "lint-baseline.json"
    assert "repro/sim" in config.determinism_modules
    assert list(config.layers) == ["model", "engine", "services", "cli"]


def test_find_project_root_walks_up(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\n", encoding="utf-8")
    nested = tmp_path / "src" / "repro" / "sim"
    nested.mkdir(parents=True)
    assert find_project_root(nested) == tmp_path
