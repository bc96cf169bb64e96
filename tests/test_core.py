import json
import math
import re

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from radgrip import cli
from radgrip.core import (ConfigError, ImuSample, ParseError, RadarPoint,
                          RadarScan, RangeError, ReferenceVelocity,
                          SchemaError, SteeringSample, config_hash,
                          config_to_dict, default_config, load_config,
                          parse_event, serialize_event, validate_config,
                          VehicleConfig)


def test_parse_zero_imu_record():
    ev = parse_event('{"type":"imu","t":0.0,"ax":0.0,"ay":0.0,"r":0.0}')
    assert isinstance(ev, ImuSample)
    assert ev.t == 0.0 and ev.ax == 0.0 and ev.ay == 0.0 and ev.r == 0.0
    assert ev.az is None


def test_parse_radar_with_90ms_latency():
    line = ('{"type":"radar","radar_id":0,"t_capture":1.0,"t_receive":1.09,'
            '"points":[[10.0,0.1,0.0,-5.0,20.0]]}')
    ev = parse_event(line)
    assert isinstance(ev, RadarScan)
    assert ev.t_receive - ev.t_capture == pytest.approx(0.09)
    assert len(ev.points) == 1
    assert ev.points[0].doppler == -5.0


def test_parse_type_violation():
    with pytest.raises(SchemaError):
        parse_event('{"type":"imu","t":"x"}')


def test_parse_malformed_json():
    # unterminated, an integer past Python's 4300-digit conversion limit,
    # and nesting past the recursion limit
    for line in ('{"type":"imu",', '{"type":"imu","t":' + "1" * 5000 + "}",
                 "[" * 100000):
        with pytest.raises(ParseError):
            parse_event(line)


def test_parse_missing_field():
    with pytest.raises(SchemaError):
        parse_event('{"type":"imu","t":0.0,"ax":0.0,"ay":0.0}')


def test_parse_rejects_nonfinite():
    with pytest.raises(RangeError):
        parse_event('{"type":"imu","t":0.0,"ax":NaN,"ay":0.0,"r":0.0}')
    with pytest.raises(RangeError):
        parse_event('{"type":"imu","t":0.0,"ax":1e999,"ay":0.0,"r":0.0}')
    with pytest.raises(RangeError, match="'t' is too large for a float"):
        parse_event('{"type":"imu","t":' + "1" * 401 + ',"ax":0,"ay":0,"r":0}')


def test_serialize_rejects_nonfinite():
    with pytest.raises(RangeError):
        serialize_event(ImuSample(0.0, 0.0, math.nan, 0.0))
    with pytest.raises(RangeError):
        serialize_event(RadarScan(0, 1.0, 1.0, (RadarPoint(
            10.0, 0.1, 0.0, math.inf, 20.0),)))


def test_parse_unknown_fields_ignored():
    ev = parse_event('{"type":"steering","t":1.5,"delta":0.02,"extra":7}')
    assert isinstance(ev, SteeringSample)
    assert ev.delta == 0.02


def test_parse_unknown_type():
    with pytest.raises(SchemaError):
        parse_event('{"type":"gps","t":0.0}')


def test_timestamps_preserved_to_microseconds():
    ev = parse_event('{"type":"imu","t":1234.567891,"ax":0,"ay":0,"r":0}')
    assert ev.t == 1234.567891


# finite floats, integer-valued ones among them
_NUMBER = (st.floats(allow_nan=False, allow_infinity=False)
           | st.integers(-2**53, 2**53).map(float))
_OPTIONAL = st.none() | _NUMBER
_POINT = st.builds(RadarPoint, _NUMBER.map(abs), _NUMBER, _NUMBER, _NUMBER,
                   _NUMBER)


@st.composite
def _scans(draw):
    t_capture, t_receive = sorted((draw(_NUMBER), draw(_NUMBER)))
    return RadarScan(draw(st.integers()), t_capture, t_receive,
                     tuple(draw(st.lists(_POINT, max_size=4))))


_EVENTS = st.one_of(
    st.builds(ImuSample, _NUMBER, _NUMBER, _NUMBER, _NUMBER, _OPTIONAL,
              _OPTIONAL, _OPTIONAL),
    st.builds(SteeringSample, _NUMBER, _NUMBER),
    _scans(),
    st.builds(ReferenceVelocity, _NUMBER, _NUMBER, _NUMBER))


@settings(max_examples=200, deadline=None)
@given(_EVENTS)
def test_serialize_parse_round_trip(ev):
    parsed = parse_event(serialize_event(ev))
    # records are tuples, whose equality ignores the record type
    assert type(parsed) is type(ev) and parsed == ev


_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text() | st.integers(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=10)
# arbitrary JSON, or an integer too large for a float
_VALUE = st.integers(2**1024, 10**400) | _JSON


@st.composite
def _mutated_records(draw):
    """A valid record with some keys, or one point entry, dropped or set to
    an arbitrary value."""
    rec = json.loads(serialize_event(draw(_EVENTS)))
    if rec.get("points") and draw(st.booleans()):
        row = draw(st.sampled_from(rec["points"]))
        row[draw(st.integers(0, len(row) - 1))] = draw(_VALUE)
    for key in draw(st.lists(st.sampled_from(sorted(rec)) | st.text(),
                             min_size=1, max_size=2)):
        if draw(st.booleans()):
            rec.pop(key, None)
        else:
            rec[key] = draw(_VALUE)
    return rec


@settings(max_examples=200, deadline=None)
@given(st.text() | _JSON.map(json.dumps)
       | _mutated_records().map(json.dumps))
def test_parse_raises_only_log_errors(line):
    try:
        parse_event(line)
    except (ParseError, SchemaError, RangeError):
        pass


def test_default_config_valid():
    cfg = default_config()
    assert cfg.thresholds.dTw >= cfg.thresholds.dt
    assert len(cfg.radars) == 3


def test_validate_config_identity():
    cfg = validate_config(VehicleConfig())
    assert cfg.m == 800.0


def test_validate_config_sign_violation():
    cfg = VehicleConfig()
    cfg.lr = -1.5
    with pytest.raises(ConfigError, match="lr"):
        validate_config(cfg)


def test_validate_config_bad_rotation():
    cfg = VehicleConfig()
    cfg.radars[0].rotation = np.diag([0.5, 1.0, 1.0])
    with pytest.raises(ConfigError, match=r"radars\[0\].rotation"):
        validate_config(cfg)


def test_validate_config_reorthonormalizes_near_rotation():
    cfg = VehicleConfig()
    R = cfg.radars[1].rotation.copy()
    R[0, 1] += 2e-8
    cfg.radars[1].rotation = R
    given = config_hash(cfg)
    checked = validate_config(cfg)
    assert config_hash(cfg) == given    # the checked config is a copy
    R = checked.radars[1].rotation
    assert np.abs(R @ R.T - np.eye(3)).max() < 1e-12


def _root(cfg):
    return cfg


def _radar0(cfg):
    return cfg.radars[0]


def _solver(cfg):
    return cfg.solver


def _thresholds(cfg):
    return cfg.thresholds


@pytest.mark.parametrize("section, key, value, error", [
    (_root, "m", True, "m: expected a number"),
    (_root, "m", np.bool_(True), "m: expected a number"),
    (_solver, "max_iterations", 2.5,
     "solver.max_iterations: expected an integer"),
    (_radar0, "nyquist", "26.5", "radars[0].nyquist: expected a number"),
    (_root, "thresholds", None, "thresholds: expected a mapping"),
], ids=["bool_for_a_float", "numpy_bool_for_a_float", "non_integral_int",
        "string_for_a_float", "none_for_a_section"])
def test_config_built_in_code_meets_the_file_rules(section, key, value,
                                                   error):
    # the message a YAML file with the same value gets
    cfg = VehicleConfig()
    setattr(section(cfg), key, value)
    with pytest.raises(ConfigError, match=rf"^{re.escape(error)}"):
        validate_config(cfg)


@pytest.mark.parametrize("section, key, value, kind", [
    (_root, "initial_biases", [0.01, -0.02, 0.0], np.ndarray),
    (_thresholds, "dt", np.float32(0.005), float),
    (_thresholds, "dt", np.float64(0.005), float),
    (_root, "m", np.int64(700), float),
    (_solver, "max_iterations", np.int64(2), int),
], ids=["list_for_an_array", "float32", "float64", "int64_for_a_float",
        "int64_for_an_int"])
def test_config_built_in_code_takes_lists_and_numpy_scalars(section, key,
                                                            value, kind):
    cfg = VehicleConfig()
    setattr(section(cfg), key, value)
    checked = validate_config(cfg)
    assert type(getattr(section(checked), key)) is kind
    assert np.array_equal(getattr(section(checked), key), value)
    assert config_hash(checked) != config_hash(default_config())


def test_validate_config_bounds_ordering():
    cfg = VehicleConfig()
    cfg.bounds.P_min = cfg.bounds.P_max + 1.0
    with pytest.raises(ConfigError, match="bounds"):
        validate_config(cfg)


def test_load_config_overlay(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("m: 750.0\nthresholds:\n  V_Fy_min: 6.0\n")
    cfg = load_config(str(path))
    assert cfg.m == 750.0
    assert cfg.thresholds.V_Fy_min == 6.0
    assert cfg.lf == 1.6  # default retained


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("mass: 750.0\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def _one_radar(**entry) -> str:
    """A config whose radars list holds one entry with a valid rotation and
    translation plus ``entry``."""
    entry = {"rotation": np.eye(3).tolist(), "translation": [2.0, 0.0, 0.2],
             **entry}
    return yaml.safe_dump({"radars": [entry]})


_NAN_ROTATION = [[math.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


@pytest.mark.parametrize("text, field", [
    ("thresholds:\n  dt: abc\n", "thresholds.dt"),
    ("covariances:\n  Sigma_Fy: [1.0, abc]\n", "covariances.Sigma_Fy"),
    ("thresholds: 5\n", "thresholds"),
    ("solver:\n  max_iter: 3\n", "solver.max_iter"),
    ("radars: 5\n", "radars"),
    ("solver:\n  max_iterations: 2.7\n", "solver.max_iterations"),
    ("assume_level_standstill: true\n", "assume_level_standstill"),
    ("m: true\n", "m"),
    (_one_radar(), "radars[0].nyquist"),
    ("initial_params:\n  front: [9.0, 1.5, 0.8, 0.0, 0.0, 0.0]\n"
     "  rear: [9.0, 1.5, 0.8, 0.0, 0.0, 0.0]\n", "initial_params"),
    ("initial_params: [9.0, 1.5, 0.8]\n", "initial_params"),
    (_one_radar(rotation=_NAN_ROTATION, nyquist=26.5), "radars[0].rotation"),
    (_one_radar(nyquist=26.5, fov_azimuth=math.nan),
     "radars[0].fov_azimuth"),
    ("solver:\n  cauchy_scale: .nan\n", "solver.cauchy_scale"),
    ("solver:\n  cauchy_scale: 0.0\n", "solver.cauchy_scale"),
    ("bounds:\n  P_max: [40.0, 4.0, 4.0, 1.0, 0.1, .nan]\n", "bounds.P_max"),
    ("thresholds:\n  snr_min: .nan\n", "thresholds.snr_min"),
    ("steering_ratio: 0.0\n", "steering_ratio"),
    ("delta_max: -0.5\n", "delta_max"),
    ("Iz: 0.0\n", "Iz"),
], ids=["non_numeric_leaf", "non_numeric_array_entry", "non_mapping_section",
        "unknown_nested_key", "non_list_radars", "non_integral_int",
        "removed_key", "bool_for_a_float", "missing_radar_key",
        "old_initial_params_form", "short_initial_params", "nan_rotation",
        "nan_fov", "nan_cauchy_scale", "zero_cauchy_scale", "nan_param_bound",
        "nan_snr_min", "zero_steering_ratio", "negative_delta_max",
        "zero_Iz"])
def test_config_fault_names_its_field(tmp_path, capsys, text, field):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}(:|$)"):
        load_config(str(path))
    log = tmp_path / "log.jsonl"
    log.write_text(serialize_event(ImuSample(0.0, 0.0, 0.0, 0.0)) + "\n")
    assert cli.main(["estimate", str(log), "--config", str(path),
                     "--out", str(tmp_path / "est.csv")]) == 2
    assert re.search(rf"^error: {re.escape(field)}(:|$)",
                     capsys.readouterr().err, re.M)


def _every_section_changed() -> VehicleConfig:
    cfg = VehicleConfig()
    cfg.m = 650.0
    cfg.initial_biases = np.array([0.01, -0.02, 0.003])
    cfg.initial_params[[0, 6]] = (11.0, 13.0)
    cfg.radars = cfg.radars[:2]
    cfg.radars[1].rotation = np.diag([-1.0, -1.0, 1.0])
    cfg.radars[1].fov_azimuth = 0.6
    cfg.thresholds.dt = 0.005
    cfg.covariances.Sigma_w = cfg.covariances.Sigma_w * 2.0
    cfg.covariances.sigma_doppler = 0.25
    cfg.bounds.P_max[0] = 35.0
    cfg.solver.max_iterations = 5
    return validate_config(cfg)


@pytest.mark.parametrize("cfg", [default_config(), _every_section_changed()],
                         ids=["defaults", "every_section_changed"])
def test_config_to_dict_round_trips_through_yaml(tmp_path, cfg):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(config_to_dict(cfg)))
    assert config_hash(load_config(str(path))) == config_hash(cfg)


def test_changed_config_hashes_differently():
    assert config_hash(_every_section_changed()) != config_hash(
        default_config())
