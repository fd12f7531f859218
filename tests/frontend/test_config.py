"""Tests for frontend configuration validation."""

from dataclasses import replace

import pytest

from repro.common.errors import ConfigError
from repro.frontend.config import FrontendConfig


def test_default_validates():
    FrontendConfig().validate()


@pytest.mark.parametrize(
    "field,value",
    [
        ("renamer_width", 0),
        ("uop_queue_depth", 8),
        ("decode_width", 0),
        ("decode_width", 13),            # a 52-uop build fetch, 48-uop queue
        ("fetch_block_bytes", 24),       # not a power of two
        ("ic_line_bytes", 48),           # not a power of two
        ("fetch_block_bytes", 128),      # exceeds the 64-byte line
        ("ic_size_bytes", 1000),         # not divisible by line*assoc
        ("ic_miss_latency", -1),
        ("mispredict_penalty", -2),
        ("mode_switch_penalty", -1),
        ("taken_branch_bubble", -1),
        ("btb_miss_penalty", -1),
    ],
)
def test_invalid_fields_rejected(field, value):
    with pytest.raises(ConfigError):
        replace(FrontendConfig(), **{field: value}).validate()


def test_frozen():
    config = FrontendConfig()
    with pytest.raises(Exception):
        config.renamer_width = 4  # type: ignore[misc]


class TestNoSharedDefaultConfigs:
    """Regression: default-constructed frontends must not alias configs.

    The classic hazard is ``def __init__(self, config=FrontendConfig())``
    — one instance created at function-definition time and shared by
    every frontend built with defaults.  All frontends use a
    ``None``-sentinel instead; these tests pin that.
    """

    def _frontend_classes(self):
        from repro.bbtc.frontend import BbtcFrontend
        from repro.frontend.decoded_cache import DecodedCacheFrontend
        from repro.frontend.ic_frontend import ICFrontend
        from repro.tc.frontend import TcFrontend
        from repro.xbc.frontend import XbcFrontend

        return [
            ICFrontend, DecodedCacheFrontend, TcFrontend,
            XbcFrontend, BbtcFrontend,
        ]

    def test_default_frontend_configs_are_distinct_instances(self):
        for cls in self._frontend_classes():
            a, b = cls(), cls()
            assert a.config is not b.config, cls.name
            assert a.config == b.config, cls.name

    def test_default_structure_configs_are_distinct_instances(self):
        from repro.bbtc.frontend import BbtcFrontend
        from repro.frontend.decoded_cache import DecodedCacheFrontend
        from repro.tc.frontend import TcFrontend
        from repro.xbc.frontend import XbcFrontend

        for cls, attr in [
            (DecodedCacheFrontend, "dc_config"),
            (TcFrontend, "tc_config"),
            (XbcFrontend, "xbc_config"),
            (BbtcFrontend, "bbtc_config"),
        ]:
            a, b = cls(), cls()
            assert getattr(a, attr) is not getattr(b, attr), cls.name
            assert getattr(a, attr) == getattr(b, attr), cls.name

    def test_explicit_config_does_not_leak_to_other_frontends(self):
        from dataclasses import replace

        from repro.xbc.frontend import XbcFrontend

        custom = replace(FrontendConfig(), renamer_width=5)
        configured = XbcFrontend(config=custom)
        fresh = XbcFrontend()
        assert configured.config.renamer_width == 5
        assert fresh.config.renamer_width == FrontendConfig().renamer_width
