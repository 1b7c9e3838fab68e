"""The input contract, property by property: on a well-formed table of any
cell text each reader returns its object or raises a DataError whose
message starts with the file's path, and the direct estimates of any small
frame are estimates or a DataError."""

import csv
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prevmap.areal import AdjacencyGraph, adjacency_from_csv
from prevmap.errors import (DataError, InvalidGeometryError, NoDataError,
                            reading)
from prevmap.geometry import Polygon, read_polygons_csv
from prevmap.simulate import read_household_size_csv, read_locations_csv
from prevmap.survey import SurveyFrame, direct_estimates, read_frame_csv

# any cell text: numbers, ids, non-finite and overflowing values, words
_CELL = st.sampled_from(["0", "-1", "0.5", "nan", "inf", "1e400", "", "A9"]) \
    | st.text(max_size=3)

_AREAS = ["A0", "A1", "A2"]
_COORDS = ["0", "1", "2.5", "10"]


def _polygons(path):
    polys = read_polygons_csv(path)
    assert all(isinstance(p, Polygon) for p in polys)


def _frame(path):
    assert isinstance(read_frame_csv(path), SurveyFrame)


def _adjacency(path):
    assert isinstance(adjacency_from_csv(path, _AREAS), AdjacencyGraph)


def _locations(path):
    pts = read_locations_csv(path)
    assert pts.shape[1] == 2 and np.isfinite(pts).all()


def _household_sizes(path):
    sizes, probs = read_household_size_csv(path)
    assert len(sizes) == len(probs) and min(sizes) >= 0


# reader check -> its file's columns, each with values it can parse
READERS = {
    _polygons: {"id": ["a", "b"], "ring_index": ["0", "1"],
                "vertex_index": ["0", "1", "2", "3"], "x": _COORDS,
                "y": _COORDS},
    _frame: {"cluster_id": ["1", "2"], "area_id": _AREAS, "x": _COORDS,
             "y": _COORDS, "household_id": ["0", "1"], "N": ["0", "2", "4"],
             "Y": ["0", "1", "2"], "weight": ["0.5", "10"]},
    _adjacency: {"area_i": _AREAS, "area_j": _AREAS},
    _locations: {"x": _COORDS, "y": _COORDS},
    _household_sizes: {"size": ["0", "1", "4"],
                       "probability": ["0", "0.25", "0.5", "1"]},
}


def _check_table(read, header, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows)
        try:
            read(path)
        except DataError as exc:
            assert str(exc).startswith(f"{path}: "), str(exc)


@pytest.mark.parametrize("read", READERS, ids=lambda f: f.__name__[1:])
@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(data=st.data())
def test_reader_returns_its_object_or_a_data_error_naming_the_file(read,
                                                                    data):
    # a table of values the reader parses, in any column order, with one
    # cell perhaps replaced by any text
    columns = READERS[read]
    header = data.draw(st.permutations(list(columns)), label="header")
    rows = data.draw(st.lists(st.tuples(*(
        st.sampled_from(columns[c]) for c in header)).map(list),
        max_size=8), label="rows")
    damage = data.draw(st.none() | st.tuples(
        st.integers(0, 7), st.integers(0, len(header) - 1), _CELL),
        label="damage")
    if rows and damage:
        at, column, text = damage
        rows[at % len(rows)][column] = text
    _check_table(read, header, rows)


@pytest.mark.parametrize("error", [InvalidGeometryError("ring 0: zero area"),
                                   NoDataError("empty frame")])
def test_reading_names_the_file_of_an_error_that_does_not(error):
    assert isinstance(error, DataError)
    with pytest.raises(DataError) as err, reading("in.csv"):
        raise error
    assert type(err.value) is DataError
    assert str(err.value) == f"in.csv: {error}"
    # a plain DataError names its file already
    with pytest.raises(DataError, match="^other.csv: bad$"), \
            reading("in.csv"):
        raise DataError("other.csv: bad")


def test_polygon_csv_with_a_two_vertex_ring_names_the_file():
    # a geometry error is raised where the file is read, so it names it
    _check_table(_polygons, READERS[_polygons],
                 [["b", 0, 0, 0, 0], ["b", 0, 1, 10, 0]])


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(households=st.lists(st.tuples(
    st.integers(0, 3), st.sampled_from(_AREAS), st.integers(0, 4),
    st.floats(0, 1), st.sampled_from([0.5, 1.0, 3.0, 100.0])),
    min_size=1, max_size=8),
    survey=st.sampled_from(["any", "all_negative", "all_positive"]))
def test_direct_estimates_of_any_small_frame_or_a_data_error(households,
                                                              survey):
    cluster, area, n, share, w = (np.array(c) for c in zip(*households))
    y = {"any": np.floor(share * n), "all_negative": np.zeros(len(n)),
         "all_positive": n}[survey]
    k = len(cluster)
    frame = SurveyFrame(cluster_id=cluster, area_id=area, x=np.zeros(k),
                        y=np.zeros(k), household_id=np.arange(k),
                        n_members=n, positives=y, weight=w)
    try:
        ests = direct_estimates(frame)
    except DataError:
        return
    assert [e.area_id for e in ests] == sorted(set(area))
    for e in ests:
        assert 0 < e.p_hat < 1 and np.isfinite(e.y_logit), e
        assert e.v_logit > 0 and np.isfinite(e.v_logit), e
