import pytest
from hypothesis import given
from hypothesis import strategies as st

from leandecomp.config import Config, Limits, load, load_config, packaged_defaults
from leandecomp.errors import ConfigError


class TestDefaults:
    def test_packaged_defaults_cover_all_sections(self):
        cfg = load_config(env={})
        assert set(cfg.sections) == {
            "FORMALIZER_AGENT_LLM",
            "PROVER_AGENT_LLM",
            "SEMANTICS_AGENT_LLM",
            "SEARCH_QUERY_AGENT_LLM",
            "DECOMPOSER_AGENT_LLM",
            "KIMINA_LEAN_SERVER",
            "LEAN_EXPLORE_SERVER",
        }

    def test_default_limits(self):
        cfg = load_config(env={})
        assert cfg.typed_limits() == Limits(
            formalizer_max_retries=10,
            prover_self_correction=2,
            prover_max_pass=32,
            decomposer_self_correction=6,
            max_depth=20,
        )

    def test_default_backend_values(self):
        cfg = load_config(env={})
        prover = cfg.chat_backend("prover")
        assert prover.model == "kdavis/Goedel-Prover-V2:32b"
        assert prover.base_url == "http://localhost:11434/v1"
        assert prover.max_remote_retries == 5
        semantics = cfg.chat_backend("semantics")
        assert semantics.model == "qwen3:30b"

    def test_decomposer_defaults_to_hosted_endpoint(self):
        cfg = load_config(env={})
        decomposer = cfg.chat_backend("decomposer")
        assert decomposer.model == "gpt-5-2025-08-07"
        assert decomposer.base_url == "https://api.openai.com/v1"
        assert decomposer.max_tokens == 50000  # from max_completion_tokens
        assert decomposer.max_tokens_param == "max_completion_tokens"
        assert cfg.chat_backend("prover").max_tokens_param == "max_tokens"

    def test_max_tokens_wins_and_the_other_name_is_not_read(self):
        cfg = load_config(
            env={
                "DECOMPOSER_AGENT_LLM__MAX_TOKENS": "100",
                "DECOMPOSER_AGENT_LLM__MAX_COMPLETION_TOKENS": "lots",
            }
        )
        decomposer = cfg.chat_backend("decomposer")
        assert (decomposer.max_tokens, decomposer.max_tokens_param) == (100, "max_tokens")

    def test_a_section_with_no_limit_sends_max_tokens(self):
        cfg = load("[PROVER_AGENT_LLM]\nmodel = m\n", env={})
        prover = cfg.chat_backend("prover")
        assert (prover.max_tokens, prover.max_tokens_param) == (50000, "max_tokens")

    def test_default_services(self):
        cfg = load_config(env={})
        verifier = cfg.verifier()
        assert verifier.url == "http://0.0.0.0:8000"
        assert verifier.verify_path == "/api/check"
        assert verifier.max_retries == 5
        search = cfg.search()
        assert search.url == "http://localhost:8001/api/v1"
        assert search.package_filters == ("Mathlib", "Batteries", "Std", "Init", "Lean")


class TestLayering:
    def test_env_overrides_default(self):
        cfg = load_config(env={"PROVER_AGENT_LLM__MAX_TOKENS": "8192"})
        assert cfg.chat_backend("prover").max_tokens == 8192

    def test_env_overrides_verifier_url(self):
        cfg = load_config(env={"KIMINA_LEAN_SERVER__URL": "http://production-server:8000"})
        assert cfg.verifier().url == "http://production-server:8000"

    def test_user_file_overrides_default_and_env_wins(self, tmp_path):
        user = tmp_path / "config.ini"
        user.write_text("[PROVER_AGENT_LLM]\nmax_pass = 4\nmodel = user-model\n")
        cfg = load_config(user_file=user, env={"PROVER_AGENT_LLM__MAX_PASS": "2"})
        assert cfg.typed_limits().prover_max_pass == 2
        assert cfg.chat_backend("prover").model == "user-model"

    @pytest.mark.parametrize(
        "key", ["PROVER_AGENT_LLM__MAX_PASSES", "KIMINA_LEAN_SERVER__MAX_RETRIE"]
    )
    def test_a_misspelt_env_option_is_rejected(self, key):
        section, option = key.split("__")
        with pytest.raises(ConfigError) as raised:
            load_config(env={key: "8"})
        assert str(raised.value) == (
            f"unknown option [{section}] {option.lower()} in environment variable {key}"
        )

    def test_a_misspelt_user_file_option_is_rejected(self, tmp_path):
        user = tmp_path / "config.ini"
        user.write_text("[PROVER_AGENT_LLM]\nmodel = user-model\nmax_passes = 8\n")
        with pytest.raises(ConfigError) as raised:
            load_config(user_file=user, env={})
        assert str(raised.value) == f"unknown option [PROVER_AGENT_LLM] max_passes in config file {user}"

    def test_options_the_defaults_leave_unset_are_known(self):
        """The accessors read options the packaged file leaves out; in a
        section a custom defaults text does not name, any option goes."""
        env = {
            "DECOMPOSER_AGENT_LLM__URL": "http://localhost:1/v1",
            "DECOMPOSER_AGENT_LLM__API_KEY": "k",
            "DECOMPOSER_AGENT_LLM__MAX_TOKENS": "7",
            "PROVER_AGENT_LLM__MAX_COMPLETION_TOKENS": "9",
            "LEAN_EXPLORE_SERVER__MAX_RETRIES": "1",
            "LEAN_EXPLORE_SERVER__HINT_CAP": "3",
        }
        cfg = load_config(env=env)
        assert cfg.chat_backend("decomposer").max_tokens == 7
        assert (cfg.search().max_retries, cfg.search().hint_cap) == (1, 3)
        cfg = load("[KIMINA_LEAN_SERVER]\nurl = u\n", None, {"PROVER_AGENT_LLM__ANYTHING": "x"})
        assert cfg.get("PROVER_AGENT_LLM", "anything") == "x"
        with pytest.raises(ConfigError, match=r"unknown option \[KIMINA_LEAN_SERVER\] max_retries"):
            load("[KIMINA_LEAN_SERVER]\nurl = u\n", None, {"KIMINA_LEAN_SERVER__MAX_RETRIES": "1"})

    def test_unknown_env_section_is_created(self):
        cfg = load_config(env={"MY_EXTENSION__FLAG": "on"})
        assert cfg.get("MY_EXTENSION", "flag") == "on"

    def test_irrelevant_env_keys_ignored(self):
        cfg = load_config(env={"PATH": "/usr/bin", "HOME": "/root"})
        assert cfg.typed_limits().max_depth == 20

    def test_option_names_case_insensitive(self):
        cfg = load_config(env={})
        assert cfg.get("PROVER_AGENT_LLM", "MAX_PASS") == "32"

    @given(
        st.sampled_from(
            [
                ("PROVER_AGENT_LLM", "max_pass", "7"),
                ("FORMALIZER_AGENT_LLM", "max_retries", "3"),
                ("KIMINA_LEAN_SERVER", "url", "http://elsewhere:1"),
                ("LEAN_EXPLORE_SERVER", "package_filters", "Std"),
                ("DECOMPOSER_AGENT_LLM", "model", "other"),
            ]
        )
    )
    def test_env_precedence_holds_for_every_pair(self, triple):
        section, option, value = triple
        cfg = load_config(env={f"{section}__{option.upper()}": value})
        assert cfg.get(section, option) == value


class TestErrors:
    def test_malformed_ini(self):
        with pytest.raises(ConfigError, match="malformed INI"):
            load("not an ini\n[whoops", None, {})

    def test_non_integer_limit_names_section_and_option(self):
        cfg = load_config(env={"PROVER_AGENT_LLM__MAX_DEPTH": "abc"})
        with pytest.raises(ConfigError, match=r"PROVER_AGENT_LLM.*max_depth"):
            cfg.typed_limits()

    @pytest.mark.parametrize(
        "section, option, value, minimum",
        [
            ("PROVER_AGENT_LLM", "max_pass", "0", 1),
            ("PROVER_AGENT_LLM", "max_self_correction_attempts", "0", 1),
            ("PROVER_AGENT_LLM", "max_depth", "-1", 0),
            ("FORMALIZER_AGENT_LLM", "max_retries", "-2", 0),
            ("DECOMPOSER_AGENT_LLM", "max_self_correction_attempts", "-1", 0),
        ],
    )
    def test_out_of_range_limit_names_section_and_option(self, section, option, value, minimum):
        cfg = load_config(env={f"{section}__{option.upper()}": value})
        with pytest.raises(
            ConfigError, match=rf"\[{section}\] {option} must be at least {minimum}, got {value}"
        ):
            cfg.typed_limits()

    def test_the_smallest_limits_are_accepted(self):
        cfg = load_config(
            env={
                "PROVER_AGENT_LLM__MAX_PASS": "1",
                "PROVER_AGENT_LLM__MAX_SELF_CORRECTION_ATTEMPTS": "1",
                "PROVER_AGENT_LLM__MAX_DEPTH": "0",
                "FORMALIZER_AGENT_LLM__MAX_RETRIES": "0",
                "DECOMPOSER_AGENT_LLM__MAX_SELF_CORRECTION_ATTEMPTS": "0",
            }
        )
        assert cfg.typed_limits() == Limits(
            formalizer_max_retries=0,
            prover_self_correction=1,
            prover_max_pass=1,
            decomposer_self_correction=0,
            max_depth=0,
        )

    def test_a_negative_service_retry_budget_is_rejected(self):
        cfg = load_config(env={"KIMINA_LEAN_SERVER__MAX_RETRIES": "-1"})
        with pytest.raises(ConfigError, match=r"\[KIMINA_LEAN_SERVER\] max_retries must be at least 0"):
            cfg.verifier()

    def test_missing_required_option(self):
        cfg = load("[KIMINA_LEAN_SERVER]\nmax_retries = 5\n", None, {})
        with pytest.raises(ConfigError, match=r"missing required option \[KIMINA_LEAN_SERVER\] url"):
            cfg.verifier()

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(user_file=tmp_path / "absent.ini", env={})


class TestRoundTrip:
    def test_package_filters_parse_drops_empty_entries(self):
        cfg = load_config(env={"LEAN_EXPLORE_SERVER__PACKAGE_FILTERS": " Mathlib, ,Std ,"})
        assert cfg.search().package_filters == ("Mathlib", "Std")

    def test_load_is_deterministic(self):
        env = {"A_SECTION__X": "1", "B_SECTION__Y": "2"}
        assert load(packaged_defaults(), None, env) == load(packaged_defaults(), None, dict(reversed(env.items())))
