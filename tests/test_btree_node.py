"""Direct unit tests for the leaf/internal node views."""

import pytest

from repro.btree.node import CHILD_PTR_SIZE, InternalNode, LeafNode
from repro.errors import PageFormatError
from repro.storage.constants import PageType
from repro.storage.page import SlottedPage

KEY = 4
VAL = 4


def leaf_page():
    return SlottedPage.format(bytearray(512), 1, PageType.BTREE_LEAF)


def internal_page():
    return SlottedPage.format(bytearray(512), 2, PageType.BTREE_INTERNAL)


def k(n):
    return n.to_bytes(KEY, "big")


def v(n):
    return n.to_bytes(VAL, "little")


def test_leaf_requires_leaf_page_type():
    with pytest.raises(PageFormatError):
        LeafNode(internal_page(), KEY, VAL)
    with pytest.raises(PageFormatError):
        InternalNode(leaf_page(), KEY)


def test_leaf_insert_and_accessors():
    leaf = LeafNode(leaf_page(), KEY, VAL)
    leaf.insert(0, k(10), v(100))
    leaf.insert(1, k(20), v(200))
    assert leaf.count == 2
    assert leaf.key_at(0) == k(10)
    assert leaf.value_at(1) == v(200)
    assert leaf.entry_at(0) == (k(10), v(100))
    assert [leaf.entry_at(i) for i in range(leaf.count)] == [
        (k(10), v(100)), (k(20), v(200))
    ]
    assert leaf.entry_size == KEY + VAL


def test_leaf_find_lower_bound():
    leaf = LeafNode(leaf_page(), KEY, VAL)
    for i, key in enumerate([10, 20, 30]):
        leaf.insert(i, k(key), v(key))
    assert leaf.find(k(10)) == (0, True)
    assert leaf.find(k(15)) == (1, False)
    assert leaf.find(k(30)) == (2, True)
    assert leaf.find(k(31)) == (3, False)
    assert leaf.find(k(5)) == (0, False)


def test_leaf_set_value_keeps_key():
    leaf = LeafNode(leaf_page(), KEY, VAL)
    leaf.insert(0, k(10), v(1))
    leaf.set_value(0, v(99))
    assert leaf.entry_at(0) == (k(10), v(99))


def test_leaf_remove():
    leaf = LeafNode(leaf_page(), KEY, VAL)
    leaf.insert(0, k(10), v(1))
    leaf.insert(1, k(20), v(2))
    leaf.remove(0)
    assert leaf.count == 1
    assert leaf.key_at(0) == k(20)


def test_internal_routing():
    node = InternalNode(internal_page(), KEY)
    # entry 0's key is the -inf sentinel
    node.insert(0, bytes(KEY), 100)
    node.insert(1, k(50), 200)
    node.insert(2, k(90), 300)
    assert node.find_child(k(10)) == (0, 100)
    assert node.find_child(k(50)) == (1, 200)   # separator inclusive
    assert node.find_child(k(89)) == (1, 200)
    assert node.find_child(k(200)) == (2, 300)
    assert node.count == 3
    assert node.child_at(2) == 300
    assert node.entry_at(1) == (k(50), 200)
    assert len(node.page.read(1)) == KEY + CHILD_PTR_SIZE  # one entry's bytes


def test_internal_single_entry_routes_everything():
    node = InternalNode(internal_page(), KEY)
    node.insert(0, bytes(KEY), 7)
    assert node.find_child(k(0)) == (0, 7)
    assert node.find_child(k(2**31)) == (0, 7)


def test_internal_entries_listing():
    node = InternalNode(internal_page(), KEY)
    node.insert(0, bytes(KEY), 1)
    node.insert(1, k(5), 2)
    assert [node.entry_at(i) for i in range(node.count)] == [
        (bytes(KEY), 1), (k(5), 2)
    ]
