import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

from quadbloch import BoundState
from quadbloch.config import _KNOWN_KEYS, MODES, ConfigError, parse_config_with_overrides, parse_state
from quadbloch.twolevel import _flow_anchor

README = Path(__file__).resolve().parent.parent / "README.md"

MINIMAL_SIMULATE = """
omega21 = 1.0
a12 = 0.2
t_start = -10
t_end = 10
step = 0.01
output = run.csv
"""

# valid documents that set every key between them
FULL_SIMULATE = MINIMAL_SIMULATE + """units = si
b12 = 0.05
c12 = 0.01
gamma11 = 0.02
gamma22 = -0.03
gamma12 = 0.04
t0 = 1.5
px0 = 0.6
py0 = 0
pz0 = 0.8
"""
FULL_COEFFS = "state_a = 2p0\nstate_b = 1s\nk_max = 2\n"

# valid (mode, document) pairs that take each key
VALID_WITH = {
    "step": ("simulate", MINIMAL_SIMULATE),
    "k_max": ("coeffs", "state_a = 2p0\nstate_b = 1s\n"),
    "t0": ("simulate", MINIMAL_SIMULATE),
    "px0": ("simulate", MINIMAL_SIMULATE + "py0 = 0\npz0 = 0\n"),
}


class TestParseState:
    def test_spectroscopic(self):
        assert parse_state("1s") == BoundState(1, 0, 0)
        assert parse_state("2p") == BoundState(2, 1, 0)
        assert parse_state("2p0") == BoundState(2, 1, 0)
        assert parse_state("2p+1") == BoundState(2, 1, 1)
        assert parse_state("3d-2") == BoundState(3, 2, -2)

    def test_triplet(self):
        assert parse_state("4, 3, -1") == BoundState(4, 3, -1)

    def test_garbage_rejected(self):
        for bad in ("xyz", "2q0", "p2", "1,2", "2,1,0,0"):
            with pytest.raises(ConfigError):
                parse_state(bad)

    def test_reads_every_label(self):
        # every z = 1 state to n = 12, so l >= 8 and its n,l,m label included
        for n in range(1, 13):
            for l in range(n):
                for m in range(-l, l + 1):
                    s = BoundState(n, l, m)
                    assert parse_state(s.label()) == s, s.label()

    def test_unphysical_rejected(self):
        with pytest.raises(ConfigError, match="invalid state"):
            parse_state("1p")


class TestParseConfig:
    def test_minimal_simulate_defaults(self):
        cfg = parse_config_with_overrides(MINIMAL_SIMULATE, [], "simulate")
        assert cfg.mode == "simulate"
        assert cfg.units == "atomic"
        assert cfg.params.t0 == 0.0
        assert cfg.params.gamma11 == 0.0 and cfg.params.gamma12 == 0.0
        assert cfg.params.omega21 == 1.0 and cfg.params.a12 == 0.2
        assert cfg.params.b12 == 0.0 and cfg.params.c12 == 0.0
        assert cfg.output == "run.csv"

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\nstate_a = 2p0  # trailing\nstate_b = 1s\n"
        cfg = parse_config_with_overrides(text, [], "coeffs")
        assert cfg.state_a == BoundState(2, 1, 0)
        assert cfg.state_b == BoundState(1, 0, 0)

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'foo'"):
            parse_config_with_overrides("omega21 = 1\nfoo = 1\n", [], "shift")

    def test_theta0_is_not_a_key(self):
        # the phase offset is fixed by the start; no run mode reads a theta0
        with pytest.raises(ConfigError, match="unknown key 'theta0'"):
            parse_config_with_overrides(MINIMAL_SIMULATE + "theta0 = 0.1\n", [], "simulate")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", list(VALID_WITH))
    def test_non_finite_number_names_line_and_key(self, key, value):
        mode, text = VALID_WITH[key]
        # the key replaces its line, if any, as the document's last line
        lines = [line for line in text.splitlines() if not line.startswith(key)] + [f"{key} = {value}"]
        with pytest.raises(ConfigError, match=f"line {len(lines)}: key '{key}' must be finite, got '{value}'"):
            parse_config_with_overrides("\n".join(lines), [], mode)
        with pytest.raises(ConfigError, match=f"override '{key}={value}': key '{key}' must be finite"):
            parse_config_with_overrides(text, [f"{key}={value}"], mode)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_with_overrides("state_a = 2p0\nstate_a = 1s\n", [], "coeffs")

    def test_malformed_number_names_line_and_key(self):
        with pytest.raises(ConfigError, match="'step' has malformed number"):
            parse_config_with_overrides(MINIMAL_SIMULATE.replace("step = 0.01", "step = zero"), [], "simulate")

    def test_negative_step_names_key(self):
        with pytest.raises(ConfigError, match="'step' must be positive"):
            parse_config_with_overrides(MINIMAL_SIMULATE.replace("step = 0.01", "step = -0.1"), [], "simulate")

    def test_reversed_window_rejected(self):
        with pytest.raises(ConfigError, match="t_end"):
            parse_config_with_overrides(MINIMAL_SIMULATE.replace("t_end = 10", "t_end = -20"), [], "simulate")

    def test_missing_mode_rejected(self):
        for mode in ("", "Simulate", "run"):
            assert mode not in MODES
            with pytest.raises(ConfigError, match=f"mode must be one of {', '.join(MODES)}, got '{mode}'"):
                parse_config_with_overrides(MINIMAL_SIMULATE, [], mode)

    def test_both_states_and_rates_rejected(self):
        text = MINIMAL_SIMULATE + "state_a = 2p0\nstate_b = 1s\n"
        with pytest.raises(ConfigError, match="not both"):
            parse_config_with_overrides(text, [], "simulate")

    def test_neither_states_nor_rates_rejected(self):
        with pytest.raises(ConfigError, match="state pair or explicit rates"):
            parse_config_with_overrides("t_start = 0\nt_end = 1\nstep = 0.1\n", [], "verify")

    def test_state_pair_allows_gammas(self):
        text = "state_a = 2p0\nstate_b = 1s\ngamma11 = 0.1\nt_start = 0\nt_end = 1\nstep = 0.1\n"
        cfg = parse_config_with_overrides(text, [], "verify")
        assert cfg.has_state_pair and cfg.params.gamma11 == 0.1

    def test_lone_state_rejected(self):
        with pytest.raises(ConfigError, match="together"):
            parse_config_with_overrides("state_a = 2p0\n", [], "coeffs")

    def test_simulate_requires_output(self):
        text = "\n".join(line for line in MINIMAL_SIMULATE.splitlines() if not line.startswith("output"))
        with pytest.raises(ConfigError, match="output"):
            parse_config_with_overrides(text, [], "simulate")

    def test_coeffs_rejects_rates(self):
        with pytest.raises(ConfigError, match="not explicit rates"):
            parse_config_with_overrides("state_a = 2p0\nstate_b = 1s\nomega21 = 1\n", [], "coeffs")

    def test_negative_k_max_rejected(self):
        with pytest.raises(ConfigError, match="k_max"):
            parse_config_with_overrides("state_a = 2p0\nstate_b = 1s\nk_max = -1\n", [], "coeffs")

    def test_bad_units_rejected(self):
        with pytest.raises(ConfigError, match="units"):
            parse_config_with_overrides(MINIMAL_SIMULATE + "units = imperial\n", [], "simulate")

    def test_initial_state_all_or_none(self):
        with pytest.raises(ConfigError, match="together"):
            parse_config_with_overrides(MINIMAL_SIMULATE + "px0 = 0\n", [], "simulate")
        cfg = parse_config_with_overrides(MINIMAL_SIMULATE + "px0 = 0\npy0 = 0\npz0 = -1\n", [], "simulate")
        assert cfg.initial == (0.0, 0.0, -1.0)


    def test_start_outside_bloch_ball_names_norm(self):
        with pytest.raises(ConfigError, match=r"norm 1\.0049\d+, outside the Bloch ball"):
            parse_config_with_overrides(MINIMAL_SIMULATE + "px0 = 0.1\npy0 = 0\npz0 = 1\n", [], "simulate")
        with pytest.raises(ConfigError, match="'px0' must be finite"):
            parse_config_with_overrides(MINIMAL_SIMULATE + "px0 = nan\npy0 = 0\npz0 = 0\n", [], "simulate")
        # within the 1e-6 slack the start is kept as written, and the run divides it
        # by its norm, onto the sphere
        cfg = parse_config_with_overrides(MINIMAL_SIMULATE + "px0 = 0\npy0 = 0\npz0 = -1.0000005\n", [], "simulate")
        assert cfg.initial == (0.0, 0.0, -1.0000005)
        assert _flow_anchor(cfg.params, cfg.t_start, cfg.initial)[0] == (0.0, 0.0, -1.0)
        cfg = parse_config_with_overrides(MINIMAL_SIMULATE + "px0 = 0.6\npy0 = 0\npz0 = 0.8000004\n", [], "simulate")
        assert cfg.initial == (0.6, 0.0, 0.8000004)
        px, py, pz = _flow_anchor(cfg.params, cfg.t_start, cfg.initial)[0]
        assert py == 0.0 and px / pz == pytest.approx(0.6 / 0.8000004, rel=1e-15)
        assert math.sqrt(px * px + pz * pz) == pytest.approx(1.0, abs=2e-16)

    def test_overflowing_start_refused_by_the_ball_rule(self):
        # |P|^2 = 1e400 overflowed a float: "(34, 'Numerical result out of range')"
        text = MINIMAL_SIMULATE + "px0 = 1e200\npy0 = 0\npz0 = 0\n"
        with pytest.raises(ConfigError, match=r"^initial state \(px0, py0, pz0\): start \(1e\+200, 0\.0, 0\.0\) "
                                              r"has norm \S+, outside the Bloch ball"):
            parse_config_with_overrides(text, [], "simulate")
        # coeffs reads no start, so the same entries are no error there
        cfg = parse_config_with_overrides("state_a = 2p0\nstate_b = 1s\npx0 = 1e200\npy0 = 0\npz0 = 0\n", [], "coeffs")
        assert cfg.initial == (1e200, 0.0, 0.0)


class TestOverrides:
    def test_override_applies_after_parse(self):
        cfg = parse_config_with_overrides(MINIMAL_SIMULATE, ["step=0.5", "output=other.csv"], "simulate")
        assert cfg.step == 0.5
        assert cfg.output == "other.csv"

    def test_override_validated(self):
        with pytest.raises(ConfigError, match="'step' must be positive"):
            parse_config_with_overrides(MINIMAL_SIMULATE, ["step=-1"], "simulate")

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_with_overrides(MINIMAL_SIMULATE, ["bogus=1"], "simulate")

    def test_default_mode_injected(self):
        # the file names no mode: the caller's is the config's, so one file
        # serves each dynamic command
        as_simulate = parse_config_with_overrides(MINIMAL_SIMULATE, [], "simulate")
        for mode in ("simulate", "verify", "shift"):
            cfg = parse_config_with_overrides(MINIMAL_SIMULATE, [], mode)
            assert cfg.mode == mode
            assert cfg == replace(as_simulate, mode=mode)

    def test_mode_is_not_a_key(self):
        with pytest.raises(ConfigError, match="line 8: unknown key 'mode'"):
            parse_config_with_overrides(MINIMAL_SIMULATE + "mode = simulate\n", [], "simulate")
        with pytest.raises(ConfigError, match="override 'mode=simulate': unknown key 'mode'"):
            parse_config_with_overrides(MINIMAL_SIMULATE, ["mode=simulate"], "simulate")


class TestSharedEntryCheck:
    """File lines and ``--set`` tokens pass through one check of key and value."""

    @pytest.mark.parametrize("key, value", [("bogus", "1"), ("t0", "")])
    def test_line_and_override_fail_with_one_message(self, key, value):
        token = f"{key}={value}"
        text = MINIMAL_SIMULATE + f"{key} = {value}\n"
        with pytest.raises(ConfigError) as from_line:
            parse_config_with_overrides(text, [], "simulate")
        with pytest.raises(ConfigError) as from_override:
            parse_config_with_overrides(MINIMAL_SIMULATE, [token], "simulate")
        line_prefix = f"line {len(text.splitlines())}: "
        override_prefix = f"override '{token}': "
        assert str(from_line.value).startswith(line_prefix)
        assert str(from_override.value).startswith(override_prefix)
        assert str(from_line.value).removeprefix(line_prefix) == \
            str(from_override.value).removeprefix(override_prefix)

    @pytest.mark.parametrize("key", _KNOWN_KEYS)
    def test_override_builds_the_same_config_as_a_line(self, key):
        mode, text = ("coeffs", FULL_COEFFS) if key in ("state_a", "state_b", "k_max") else ("simulate", FULL_SIMULATE)
        (line,) = [line for line in text.splitlines() if line.split("=")[0].strip() == key]
        without = "\n".join(other for other in text.splitlines() if other != line)
        value = line.split("=", 1)[1].strip()
        assert parse_config_with_overrides(without, [f"{key}={value}"], mode) == \
            parse_config_with_overrides(text, [], mode)


def test_readme_names_exactly_the_known_keys():
    match = re.search(r"Recognized\s+keys:\s+`([^`]*)`,\s+plus\s+`([^`]*)`", README.read_text())
    assert match is not None
    named = [key.strip() for key in match.group(1).split(",")] + match.group(2).split("/")
    assert sorted(named) == sorted(_KNOWN_KEYS)
