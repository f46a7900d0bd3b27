"""The CI workflow and ROADMAP.md name one Tier-1 command."""

import pathlib
import re

ROOT = pathlib.Path(__file__).parents[1]


def test_workflow_runs_the_roadmap_tier1_command():
    # plain text, so that the check needs no YAML parser
    [command] = re.findall(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$",
                           (ROOT / "ROADMAP.md").read_text(), re.MULTILINE)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert re.search(rf"^\s+run: {re.escape(command)}$", workflow, re.MULTILINE)
