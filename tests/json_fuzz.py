"""Random JSON values and paths into JSON documents, for the input fuzz tests."""

from hypothesis import strategies as st


def json_values(*specials):
    """Small random JSON values, or one of the given special values."""
    return st.sampled_from(specials) | st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                    max_size=3),
        max_leaves=6)


def paths(obj, path=()):
    """Every path (a tuple of keys and indices) into obj, the empty path first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in items:
        yield from paths(child, path + (key,))


def pick_path(obj, pick: int) -> tuple:
    """One of obj's paths, chosen by an integer of any size."""
    every = list(paths(obj))
    return every[pick % len(every)]


def set_at(obj, path: tuple, value):
    """obj with the item at path set to value (value itself for the empty path)."""
    if not path:
        return value
    obj[path[0]] = set_at(obj[path[0]], path[1:], value)
    return obj
