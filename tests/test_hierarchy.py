import numpy as np
import pytest

from nfetc.hierarchy import (ForestError, TypeForest, apply_refinement, parent_path,
                             read_refinement)
from oracles import (brute_ancestors, brute_expand, brute_single_path,
                     brute_terminal_set, random_forest_paths)

PEOPLE = ["/person", "/person/coach", "/person/athlete", "/organization"]


def test_parse_two_roots_depth_two():
    forest = TypeForest(PEOPLE)
    assert len(forest) == 4
    assert [p for p in forest.types() if parent_path(p) is None] == ["/organization", "/person"]
    assert max(forest.depth(p) for p in forest.types()) == 2


def test_implied_intermediates_materialized():
    forest = TypeForest(["/a/b/c"])
    assert forest.types() == ["/a", "/a/b", "/a/b/c"]


def test_indexing_is_stable_and_parents_first():
    forest = TypeForest(PEOPLE)
    assert forest.types() == sorted(PEOPLE)
    for path in forest.types():
        parent = parent_path(path)
        if parent is not None:
            assert forest.index(parent) < forest.index(path)
    assert forest.path_of(forest.index("/person/coach")) == "/person/coach"


@pytest.mark.parametrize("bad", ["person", "/", "//a", "/a//b", "/a b", "", "/a/"])
def test_malformed_paths_rejected(bad):
    with pytest.raises(ForestError, match="malformed"):
        TypeForest([bad])


def test_empty_forest_rejected():
    with pytest.raises(ForestError):
        TypeForest([])


def test_from_file_with_comments_and_duplicates(tmp_path):
    f = tmp_path / "types.txt"
    f.write_text("# header\n/person\n/person/coach  # inline\n\n/organization\n")
    forest = TypeForest.from_file(f)
    assert forest.types() == ["/organization", "/person", "/person/coach"]

    f.write_text("/person\n/person\n")
    with pytest.raises(ForestError, match="2"):
        TypeForest.from_file(f)


def test_ancestors_examples():
    forest = TypeForest(PEOPLE + ["/a/b/c"])
    assert forest.ancestors("/person/coach") == {"/person"}
    assert forest.ancestors("/person") == set()
    assert forest.ancestors("/a/b/c") == {"/a", "/a/b"}


def test_expand_to_path_examples():
    forest = TypeForest(PEOPLE + ["/a/b/c"])
    assert forest.expand_to_path("/person/coach") == {"/person", "/person/coach"}
    assert forest.expand_to_path("/person") == {"/person"}
    assert len(forest.expand_to_path("/a/b/c")) == 3


def test_terminal_set_examples():
    forest = TypeForest(PEOPLE)
    assert forest.terminal_set(["/person", "/person/athlete", "/person/coach"]) == \
        {"/person/athlete", "/person/coach"}
    assert forest.terminal_set(["/person"]) == {"/person"}
    assert forest.terminal_set(["/person", "/person/athlete"]) == {"/person/athlete"}


def test_is_single_path_examples():
    forest = TypeForest(PEOPLE)
    assert forest.is_single_path(["/person", "/person/coach"])
    assert not forest.is_single_path(["/person", "/person/athlete", "/person/coach"])
    assert forest.is_single_path(["/person/athlete"])


def test_depth_bookkeeping():
    forest = TypeForest(["/a/b/c", "/d"])
    assert forest.depth("/a") == 1
    assert forest.depth("/a/b/c") == 3
    assert max(forest.depth(p) for p in forest.types()) == 3


def test_ancestor_matrix_against_brute_force():
    forest = TypeForest(PEOPLE + ["/a/b/c"])
    m = forest.ancestor_matrix()
    for y, path in enumerate(forest.types()):
        for a, anc in enumerate(forest.types()):
            expected = 1.0 if anc in brute_ancestors(path) else 0.0
            assert m[y, a] == expected
    assert m is forest.ancestor_matrix()  # cached


def test_algebra_matches_brute_force_on_random_forests():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        paths = random_forest_paths(rng)
        forest = TypeForest(paths)
        for t in forest.types():
            assert forest.ancestors(t) == brute_ancestors(t) & set(forest.types())
            assert forest.expand_to_path(t) == brute_expand(t)
        k = len(forest)
        size = int(rng.integers(1, min(k, 6) + 1))
        labels = [forest.path_of(int(i))
                  for i in rng.choice(k, size=size, replace=False)]
        assert forest.terminal_set(labels) == brute_terminal_set(labels)
        assert forest.is_single_path(labels) == brute_single_path(labels)
        # idempotence and the expand round trip
        ts = forest.terminal_set(labels)
        assert forest.terminal_set(ts) == ts
        for t in ts:
            expanded = forest.expand_to_path(t)
            assert forest.terminal_set(expanded) == {t}
            assert forest.is_single_path(expanded)


# -- refinement ---------------------------------------------------------------

def fig_forest():
    return TypeForest(["/software", "/government", "/organization", "/product",
                       "/person"])


def test_refinement_relocates_under_new_parent():
    refined, mapping = apply_refinement(
        fig_forest(), {"/software": "/product/software"})
    assert "/product/software" in refined
    assert "/software" not in refined
    assert mapping["/software"] == "/product/software"
    assert len(refined) == 5


def test_refinement_government_example():
    refined, mapping = apply_refinement(
        fig_forest(), {"/government": "/organization/government"})
    assert refined.ancestors("/organization/government") == {"/organization"}
    assert mapping["/person"] == "/person"


def test_identity_refinement_is_identity():
    forest = fig_forest()
    refined, mapping = apply_refinement(forest, {})
    assert refined.types() == forest.types()
    assert all(old == new for old, new in mapping.items())


def test_refinement_moves_whole_subtree():
    forest = TypeForest(["/software", "/software/os", "/product"])
    refined, mapping = apply_refinement(
        forest, {"/software": "/product/software"})
    assert mapping["/software/os"] == "/product/software/os"
    assert "/product/software/os" in refined


def test_refinement_map_must_be_one_to_one(tmp_path):
    # a refinement enters from its file, whose reader rejects a repeated target
    f = tmp_path / "refine.tsv"
    f.write_text("/a\t/x\n# moved too\n/b\t/x\n")
    with pytest.raises(ForestError) as err:
        read_refinement(f)
    assert str(err.value) == f"{f}:3: duplicate target '/x'"


def test_refinement_collision_detected():
    forest = TypeForest(["/a", "/b"])
    with pytest.raises(ForestError, match="collides"):
        apply_refinement(forest, {"/a": "/b"})


def test_refinement_missing_parent_detected():
    forest = TypeForest(["/a", "/b"])
    with pytest.raises(ForestError, match="parent"):
        apply_refinement(forest, {"/a": "/c/a"})


def test_refinement_longest_prefix_wins():
    forest = TypeForest(["/a/b/c", "/a/d", "/untouched"])
    _, mapping = apply_refinement(forest, {"/a": "/x", "/a/b": "/y"})
    assert mapping["/a/b/c"] == "/y/c"
    assert mapping["/a/d"] == "/x/d"
    assert mapping["/untouched"] == "/untouched"


def test_refinement_from_file(tmp_path):
    f = tmp_path / "refine.tsv"
    f.write_text("# fixes\n/software\t/product/software\n")
    assert read_refinement(f) == {"/software": "/product/software"}

    f.write_text("/a /x\n")  # space, not tab
    with pytest.raises(ForestError, match="TAB"):
        read_refinement(f)

    f.write_text("/a\t/x\n/a\t/y\n")
    with pytest.raises(ForestError, match="duplicate source"):
        read_refinement(f)
