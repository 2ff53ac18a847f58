import pytest

from quadbloch import BoundState
from quadbloch.config import ConfigError, parse_config, parse_config_with_overrides, parse_state

MINIMAL_SIMULATE = """
mode = simulate
omega21 = 1.0
a12 = 0.2
t_start = -10
t_end = 10
step = 0.01
output = run.csv
"""

# valid documents that take each key
VALID_WITH = {
    "step": MINIMAL_SIMULATE,
    "k_max": "mode = coeffs\nstate_a = 2p0\nstate_b = 1s\n",
    "t0": MINIMAL_SIMULATE,
    "px0": MINIMAL_SIMULATE + "py0 = 0\npz0 = 0\n",
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
        cfg = parse_config(MINIMAL_SIMULATE)
        assert cfg.mode == "simulate"
        assert cfg.units == "atomic"
        assert cfg.t0 == 0.0
        assert cfg.gamma11 == 0.0 and cfg.gamma12 == 0.0
        assert cfg.omega21 == 1.0 and cfg.a12 == 0.2
        assert cfg.b12 is None and cfg.c12 is None
        assert cfg.output == "run.csv"

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\nmode = coeffs  # trailing\nstate_a = 2p0\nstate_b = 1s\n"
        cfg = parse_config(text)
        assert cfg.state_a == BoundState(2, 1, 0)
        assert cfg.state_b == BoundState(1, 0, 0)

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'foo'"):
            parse_config("mode = shift\nfoo = 1\n")

    def test_theta0_is_not_a_key(self):
        # the phase offset is fixed by the start; no run mode reads a theta0
        with pytest.raises(ConfigError, match="unknown key 'theta0'"):
            parse_config(MINIMAL_SIMULATE + "theta0 = 0.1\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", list(VALID_WITH))
    def test_non_finite_number_names_line_and_key(self, key, value):
        text = VALID_WITH[key]
        # the key replaces its line, if any, as the document's last line
        lines = [line for line in text.splitlines() if not line.startswith(key)] + [f"{key} = {value}"]
        with pytest.raises(ConfigError, match=f"line {len(lines)}: key '{key}' must be finite, got '{value}'"):
            parse_config("\n".join(lines))
        with pytest.raises(ConfigError, match=f"override '{key}={value}': key '{key}' must be finite"):
            parse_config_with_overrides(text, [f"{key}={value}"])

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config("mode = coeffs\nmode = shift\n")

    def test_malformed_number_names_line_and_key(self):
        with pytest.raises(ConfigError, match="'step' has malformed number"):
            parse_config(MINIMAL_SIMULATE.replace("step = 0.01", "step = zero"))

    def test_negative_step_names_key(self):
        with pytest.raises(ConfigError, match="'step' must be positive"):
            parse_config(MINIMAL_SIMULATE.replace("step = 0.01", "step = -0.1"))

    def test_reversed_window_rejected(self):
        with pytest.raises(ConfigError, match="t_end"):
            parse_config(MINIMAL_SIMULATE.replace("t_end = 10", "t_end = -20"))

    def test_missing_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config("omega21 = 1\n")

    def test_both_states_and_rates_rejected(self):
        text = MINIMAL_SIMULATE + "state_a = 2p0\nstate_b = 1s\n"
        with pytest.raises(ConfigError, match="not both"):
            parse_config(text)

    def test_neither_states_nor_rates_rejected(self):
        with pytest.raises(ConfigError, match="state pair or explicit rates"):
            parse_config("mode = verify\nt_start = 0\nt_end = 1\nstep = 0.1\n")

    def test_state_pair_allows_gammas(self):
        text = "mode = verify\nstate_a = 2p0\nstate_b = 1s\ngamma11 = 0.1\nt_start = 0\nt_end = 1\nstep = 0.1\n"
        cfg = parse_config(text)
        assert cfg.has_state_pair and cfg.gamma11 == 0.1

    def test_lone_state_rejected(self):
        with pytest.raises(ConfigError, match="together"):
            parse_config("mode = coeffs\nstate_a = 2p0\n")

    def test_simulate_requires_output(self):
        text = "\n".join(line for line in MINIMAL_SIMULATE.splitlines() if not line.startswith("output"))
        with pytest.raises(ConfigError, match="output"):
            parse_config(text)

    def test_coeffs_rejects_rates(self):
        with pytest.raises(ConfigError, match="not explicit rates"):
            parse_config("mode = coeffs\nstate_a = 2p0\nstate_b = 1s\nomega21 = 1\n")

    def test_negative_k_max_rejected(self):
        with pytest.raises(ConfigError, match="k_max"):
            parse_config("mode = coeffs\nstate_a = 2p0\nstate_b = 1s\nk_max = -1\n")

    def test_bad_units_rejected(self):
        with pytest.raises(ConfigError, match="units"):
            parse_config(MINIMAL_SIMULATE + "units = imperial\n")

    def test_initial_state_all_or_none(self):
        with pytest.raises(ConfigError, match="together"):
            parse_config(MINIMAL_SIMULATE + "px0 = 0\n")
        cfg = parse_config(MINIMAL_SIMULATE + "px0 = 0\npy0 = 0\npz0 = -1\n")
        assert cfg.initial == (0.0, 0.0, -1.0)


    def test_start_outside_bloch_ball_names_norm(self):
        with pytest.raises(ConfigError, match=r"norm 1\.0049\d+, outside the Bloch ball"):
            parse_config(MINIMAL_SIMULATE + "px0 = 0.1\npy0 = 0\npz0 = 1\n")
        with pytest.raises(ConfigError, match="'px0' must be finite"):
            parse_config(MINIMAL_SIMULATE + "px0 = nan\npy0 = 0\npz0 = 0\n")
        # within the integrator's 1e-6 slack the start is kept as given
        cfg = parse_config(MINIMAL_SIMULATE + "px0 = 0\npy0 = 0\npz0 = -1.0000005\n")
        assert cfg.initial == (0.0, 0.0, -1.0000005)


class TestOverrides:
    def test_override_applies_after_parse(self):
        cfg = parse_config_with_overrides(MINIMAL_SIMULATE, ["step=0.5", "output=other.csv"])
        assert cfg.step == 0.5
        assert cfg.output == "other.csv"

    def test_override_validated(self):
        with pytest.raises(ConfigError, match="'step' must be positive"):
            parse_config_with_overrides(MINIMAL_SIMULATE, ["step=-1"])

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_with_overrides(MINIMAL_SIMULATE, ["bogus=1"])

    def test_default_mode_injected(self):
        text = "\n".join(line for line in MINIMAL_SIMULATE.splitlines() if not line.startswith("mode"))
        cfg = parse_config_with_overrides(text, [], default_mode="simulate")
        assert cfg.mode == "simulate"
