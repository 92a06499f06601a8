"""Layered configuration: packaged defaults < user INI file < environment.

Environment overrides use ``SECTION__OPTION`` keys (double underscore,
uppercase), e.g. ``PROVER_AGENT_LLM__MAX_PASS=8``. Typed accessors
build the per-agent backend configs, the service configs, and the
search budget limits. ``data/defaults.ini`` states each default once:
an accessor that finds an option unset raises ConfigError.
"""

from __future__ import annotations

import configparser
import os
import re
from contextlib import suppress
from dataclasses import dataclass
from importlib import resources
from typing import Mapping
from urllib.parse import urlsplit

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

#: Per section, the options the accessors read that may stay unset: the
#: api_key (OPENAI_API_KEY stands in) and either one of the token-limit pair.
_UNLISTED_OPTIONS = dict.fromkeys(
    ROLE_SECTIONS.values(), ("api_key", "max_tokens", "max_completion_tokens")
)

_ENV_KEY_RE = re.compile(r"^([A-Z][A-Z0-9_]*?)__([A-Z0-9_]+)$")


@dataclass(frozen=True)
class Limits:
    """Search budgets, read by ``Config.typed_limits``: retry and pass counts, the depth cap."""

    formalizer_max_retries: int
    prover_self_correction: int
    prover_max_pass: int
    decomposer_self_correction: int
    max_depth: int


@dataclass(frozen=True)
class Config:
    """Immutable view of merged configuration."""

    sections: dict[str, dict[str, str]]

    def get(self, section: str, option: str) -> str | None:
        return self.sections.get(section, {}).get(option.lower())

    def require(self, section: str, option: str) -> str:
        value = self.get(section, option)
        if value is None:
            raise ConfigError(f"missing required option [{section}] {option}")
        return value

    def getint(self, section: str, option: str, minimum: int = 0) -> int:
        """The option as an integer of at least ``minimum``. Raises
        ConfigError when it is unset or any other value."""
        raw = self.require(section, option)
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

    def url(self, section: str) -> str:
        """The section's ``url``: http:// or https://, a host and, if it
        names a port, one of 1-65535. Raises ConfigError for any other."""
        url = self.require(section, "url")
        with suppress(ValueError):  # an unclosed IPv6 bracket, a port that is not a number
            parts = urlsplit(url)
            if parts.scheme in ("http", "https") and parts.hostname and parts.port != 0:
                return url
        raise ConfigError(f"option [{section}] url must be http(s)://host[:port], got {url!r}")

    def chat_backend(self, role: str) -> ChatBackendConfig:
        """Typed backend config for one of the five agent roles."""
        section = ROLE_SECTIONS[role]
        # The limit goes out under the name the section sets it by, max_tokens
        # when it sets both (and missing when it sets neither): Ollama reads
        # max_tokens, and OpenAI's reasoning models accept only max_completion_tokens.
        param = "max_completion_tokens"
        if self.get(section, param) is None or self.get(section, "max_tokens") is not None:
            param = "max_tokens"
        return ChatBackendConfig(
            model=self.require(section, "model"),
            base_url=self.url(section),
            api_key=self.get(section, "api_key") or "",
            max_tokens=self.getint(section, param),
            max_tokens_param=param,
            max_remote_retries=self.getint(section, "max_remote_retries"),
        )

    def verifier(self) -> VerifierConfig:
        section = "KIMINA_LEAN_SERVER"
        return VerifierConfig(
            url=self.url(section),
            verify_path=self.require(section, "verify_path"),
            max_retries=self.getint(section, "max_retries"),
        )

    def search(self) -> SearchConfig:
        section = "LEAN_EXPLORE_SERVER"
        raw_filters = self.require(section, "package_filters")
        filters = tuple(p.strip() for p in raw_filters.split(",") if p.strip())
        return SearchConfig(
            url=self.url(section),
            package_filters=filters,
            max_retries=self.getint(section, "max_retries"),
            hint_cap=self.getint(section, "hint_cap"),
        )

    def typed_limits(self) -> Limits:
        return Limits(
            formalizer_max_retries=self.getint("FORMALIZER_AGENT_LLM", "max_retries"),
            prover_self_correction=self.getint(
                "PROVER_AGENT_LLM", "max_self_correction_attempts", minimum=1
            ),
            prover_max_pass=self.getint("PROVER_AGENT_LLM", "max_pass", minimum=1),
            decomposer_self_correction=self.getint(
                "DECOMPOSER_AGENT_LLM", "max_self_correction_attempts"
            ),
            max_depth=self.getint("PROVER_AGENT_LLM", "max_depth"),
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
    env = os.environ if env is None else env
    for key in sorted(env):
        if match := _ENV_KEY_RE.match(key):
            merge(match.group(1), match.group(2).lower(), env[key], f"environment variable {key}")
    for section in ROLE_SECTIONS.values():  # OPENAI_API_KEY stands in for an empty api_key
        if section in sections and not sections[section].get("api_key"):
            sections[section]["api_key"] = env.get("OPENAI_API_KEY", "")
    return Config(sections=sections)


def load_config(
    user_file: str | os.PathLike | None = None, env: Mapping[str, str] | None = None
) -> Config:
    """Load the packaged defaults plus optional user file and environment."""
    return load(packaged_defaults(), user_file, env)
