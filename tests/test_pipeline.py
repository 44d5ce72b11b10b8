import json
import math
import re

import pytest

from snspdkit.errors import ConfigError, SnspdKitError
from snspdkit.io_utils import OutputDir, canonical_json, write_csv, write_json
from snspdkit.pipeline import STAGES, CheckResult, RunManifest, StageRecord, run_reproduce, verify_manifest


def test_manifest_payload_schema():
    """The manifest payload holds every field of the run, its stages and
    their checks, plus ``all_pass``; canonical JSON writes an infinite bound
    as ``Infinity``."""
    stage = StageRecord("tm-design", "fail", [CheckResult("tm_alpha_per_cm", 400.0, 500.0, math.inf)],
                        ["a.csv"], 7, {"core_thickness_nm": 350.0})
    manifest = RunManifest("0.1.0", "abc", "t0", "t1", [stage])
    assert manifest.to_payload() == {
        "tool_version": "0.1.0", "config_digest": "abc", "started_utc": "t0",
        "finished_utc": "t1", "all_pass": False,
        "stages": [{
            "name": "tm-design", "status": "fail", "seed": 7, "outputs": ["a.csv"],
            "notes": {"core_thickness_nm": 350.0},
            "checks": [{"name": "tm_alpha_per_cm", "value": 400.0, "lo": 500.0,
                        "hi": math.inf, "passed": False}],
        }],
    }
    assert '"hi": Infinity' in canonical_json(manifest.to_payload())


@pytest.mark.parametrize("name, content, message", [
    ("absent.csv", None, "manifest lists missing output absent.csv"),
    ("bare.json", json.dumps({"x": 1}), "output bare.json lacks the config digest header"),
    ("bare.csv", "a\n1\n", "output bare.csv lacks the config digest header"),
], ids=["missing", "json-without-header", "text-without-header"])
def test_verify_manifest_rejects_bad_outputs(tmp_path, name, content, message):
    """Every listed output must exist and carry the run's config digest in
    its header, JSON and text alike."""
    out = OutputDir(tmp_path)
    write_csv(out.path("good.csv"), ["a"], [[1]], "abc")
    write_json(out.path("good.json"), {"x": 1}, "abc")
    manifest = RunManifest("0.1.0", "abc", "t0", stages=[StageRecord("s", outputs=["good.csv"])])
    verify_manifest(manifest, out, extra=["good.json"])
    if content is not None:
        out.path(name).write_text(content)
    manifest.stages[0].outputs.append(name)
    with pytest.raises(SnspdKitError, match=message):
        verify_manifest(manifest, out, extra=["good.json"])


def test_unknown_stage_refused_before_any_output(default_config, tmp_path):
    """A library caller's unknown stage to skip is a ConfigError naming the
    stages, raised before any stage runs or writes (the CLI's ``--skip``
    choice refuses it before this)."""
    out = OutputDir(tmp_path / "out")
    with pytest.raises(ConfigError, match=re.escape(f"unknown stage 'bogus'; stages: {STAGES}")):
        run_reproduce(default_config, out, ("pulse", "bogus"))
    assert list(out.base.iterdir()) == []
