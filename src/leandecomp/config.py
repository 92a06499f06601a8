"""Layered configuration: packaged defaults < user INI file < environment.

Environment overrides use ``SECTION__OPTION`` keys (double underscore,
uppercase), e.g. ``PROVER_AGENT_LLM__MAX_PASS=8``. Typed accessors
build the per-agent backend configs, the service configs, and the
search budget limits.
"""

from __future__ import annotations

import configparser
import os
import re
from dataclasses import dataclass
from importlib import resources
from typing import Mapping

from .errors import ConfigError
from .services import ChatBackendConfig, SearchConfig, VerifierConfig

#: Agent role → config section.
ROLE_SECTIONS = {
    "formalizer": "FORMALIZER_AGENT_LLM",
    "prover": "PROVER_AGENT_LLM",
    "semantics": "SEMANTICS_AGENT_LLM",
    "search_query": "SEARCH_QUERY_AGENT_LLM",
    "decomposer": "DECOMPOSER_AGENT_LLM",
}

#: Fallback endpoint for backends configured without a url (hosted API).
DEFAULT_OPENAI_URL = "https://api.openai.com/v1"

#: Per section, the options the accessors read that the defaults may leave unset.
_UNLISTED_OPTIONS = dict.fromkeys(
    ROLE_SECTIONS.values(), ("url", "api_key", "max_tokens", "max_completion_tokens")
) | {"LEAN_EXPLORE_SERVER": ("max_retries", "hint_cap")}

_ENV_KEY_RE = re.compile(r"^([A-Z][A-Z0-9_]*?)__([A-Z0-9_]+)$")


@dataclass(frozen=True)
class Limits:
    """Search budgets: retry counts, pass counts, and the depth cap."""

    formalizer_max_retries: int = 10
    prover_self_correction: int = 2
    prover_max_pass: int = 32
    decomposer_self_correction: int = 6
    max_depth: int = 20


@dataclass(frozen=True)
class Config:
    """Immutable view of merged configuration."""

    sections: dict[str, dict[str, str]]

    def get(self, section: str, option: str, fallback: str | None = None) -> str | None:
        return self.sections.get(section, {}).get(option.lower(), fallback)

    def require(self, section: str, option: str) -> str:
        value = self.get(section, option)
        if value is None:
            raise ConfigError(f"missing required option [{section}] {option}")
        return value

    def getint(self, section: str, option: str, fallback: int, minimum: int = 0) -> int:
        """The option as an integer of at least ``minimum``, or ``fallback``
        when it is unset. Raises ConfigError for any other value."""
        raw = self.get(section, option)
        if raw is None:
            return fallback
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(
                f"option [{section}] {option} must be an integer, got {raw!r}"
            ) from None
        if value < minimum:
            raise ConfigError(
                f"option [{section}] {option} must be at least {minimum}, got {value}"
            )
        return value

    def chat_backend(self, role: str) -> ChatBackendConfig:
        """Typed backend config for one of the five agent roles."""
        section = ROLE_SECTIONS[role]
        url = self.get(section, "url") or DEFAULT_OPENAI_URL
        api_key = self.get(section, "api_key") or os.environ.get("OPENAI_API_KEY", "")
        # The limit goes out under the name the section sets it by, max_tokens
        # when it sets both or neither: Ollama reads max_tokens, and OpenAI's
        # reasoning models accept only max_completion_tokens.
        param = "max_completion_tokens"
        if self.get(section, param) is None or self.get(section, "max_tokens") is not None:
            param = "max_tokens"
        return ChatBackendConfig(
            model=self.require(section, "model"),
            base_url=url,
            api_key=api_key,
            max_tokens=self.getint(section, param, fallback=50000),
            max_tokens_param=param,
            max_remote_retries=self.getint(section, "max_remote_retries", fallback=5),
        )

    def verifier(self) -> VerifierConfig:
        section = "KIMINA_LEAN_SERVER"
        return VerifierConfig(
            url=self.require(section, "url"),
            verify_path=self.get(section, "verify_path", "/api/check"),
            max_retries=self.getint(section, "max_retries", fallback=5),
        )

    def search(self) -> SearchConfig:
        section = "LEAN_EXPLORE_SERVER"
        raw_filters = self.get(section, "package_filters", "") or ""
        filters = tuple(p.strip() for p in raw_filters.split(",") if p.strip())
        return SearchConfig(
            url=self.require(section, "url"),
            package_filters=filters,
            max_retries=self.getint(section, "max_retries", fallback=5),
            hint_cap=self.getint(section, "hint_cap", fallback=20),
        )

    def typed_limits(self) -> Limits:
        return Limits(
            formalizer_max_retries=self.getint("FORMALIZER_AGENT_LLM", "max_retries", fallback=10),
            prover_self_correction=self.getint(
                "PROVER_AGENT_LLM", "max_self_correction_attempts", fallback=2, minimum=1
            ),
            prover_max_pass=self.getint("PROVER_AGENT_LLM", "max_pass", fallback=32, minimum=1),
            decomposer_self_correction=self.getint(
                "DECOMPOSER_AGENT_LLM", "max_self_correction_attempts", fallback=6
            ),
            max_depth=self.getint("PROVER_AGENT_LLM", "max_depth", fallback=20),
        )


def packaged_defaults() -> str:
    """The INI text shipped with the package."""
    return (resources.files("leandecomp.data") / "defaults.ini").read_text(encoding="utf-8")


def _parse_ini(text: str, origin: str) -> dict[str, dict[str, str]]:
    parser = configparser.RawConfigParser()
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"malformed INI in {origin}: {exc}") from exc
    return {section: dict(parser.items(section)) for section in parser.sections()}


def load(
    defaults: str,
    user_file: str | os.PathLike | None = None,
    env: Mapping[str, str] | None = None,
) -> Config:
    """
    Merge configuration layers with precedence env > user file > defaults.

    Env keys must look like ``SECTION__OPTION``; unknown sections are
    created rather than rejected so extensions can configure themselves.
    In a section of ``defaults``, an option that neither it nor any
    accessor names raises ConfigError, naming where it was set.
    """
    sections = _parse_ini(defaults, "packaged defaults")
    known = {name: {*keys, *_UNLISTED_OPTIONS.get(name, ())} for name, keys in sections.items()}

    def merge(section: str, option: str, value: str, origin: str) -> None:
        if section in known and option not in known[section]:
            raise ConfigError(f"unknown option [{section}] {option} in {origin}")
        sections.setdefault(section, {})[option] = value

    if user_file is not None:
        try:
            with open(user_file, encoding="utf-8") as handle:
                user_text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {user_file}: {exc}") from exc
        for section, options in _parse_ini(user_text, str(user_file)).items():
            for option, value in options.items():
                merge(section, option, value, f"config file {user_file}")
    if env is None:
        env = os.environ
    for key in sorted(env):
        if match := _ENV_KEY_RE.match(key):
            merge(match.group(1), match.group(2).lower(), env[key], f"environment variable {key}")
    return Config(sections=sections)


def load_config(
    user_file: str | os.PathLike | None = None, env: Mapping[str, str] | None = None
) -> Config:
    """Load the packaged defaults plus optional user file and environment."""
    return load(packaged_defaults(), user_file, env)
