"""Tests for message primitives and byte accounting."""

import pickle

import numpy as np
import pytest

from repro.simmpi.message import (
    Bytes,
    ComputeOp,
    MarkOp,
    RecvOp,
    SendOp,
    payload_nbytes,
)


class TestPayloadNbytes:
    def test_numpy_array(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80
        assert payload_nbytes(np.zeros((3, 4), dtype=np.int32)) == 48

    def test_bytes_sentinel(self):
        assert payload_nbytes(Bytes(12345)) == 12345

    def test_raw_bytes(self):
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes(bytearray(7)) == 7

    def test_python_objects_use_pickle_size(self):
        small = payload_nbytes({"a": 1})
        big = payload_nbytes({"a": list(range(1000))})
        assert 0 < small < big

    def test_bytes_rejects_negative(self):
        with pytest.raises(ValueError):
            Bytes(-1)


class TestOps:
    def test_compute_rejects_negative(self):
        with pytest.raises(ValueError):
            ComputeOp(seconds=-1.0)

    def test_ops_are_frozen(self):
        op = SendOp(dest=1, payload=None)
        with pytest.raises(AttributeError):
            op.dest = 2  # type: ignore[misc]
        r = RecvOp(source=0)
        with pytest.raises(AttributeError):
            r.source = 3  # type: ignore[misc]

    def test_ops_of_different_classes_never_equal(self):
        # same leading field values, four classes of distinct arity
        ops = [
            SendOp(dest=0, payload=0),
            RecvOp(source=0),
            ComputeOp(seconds=0.0),
            MarkOp(label="0"),
        ]
        for i, a in enumerate(ops):
            for j, b in enumerate(ops):
                assert (a == b) == (i == j), (a, b)
        assert SendOp(1, None, 0) == SendOp(dest=1, payload=None)
        assert RecvOp(2, 3) != RecvOp(2, 3, timeout=0.5)

    def test_message_ops_pickle_and_hash_with_bytes_payload(self):
        send = SendOp(dest=3, payload=Bytes(64), tag=7)
        recv = RecvOp(source=1, tag=7, timeout=0.25, cancellable=True)
        for op in (send, recv):
            clone = pickle.loads(pickle.dumps(op))
            assert clone == op and type(clone) is type(op)
            assert hash(clone) == hash(op)
        assert len({send, SendOp(3, Bytes(64), 7), recv}) == 2

    def test_repr_names_fields(self):
        assert repr(SendOp(dest=1, payload=Bytes(8), tag=2)) == (
            "SendOp(dest=1, payload=Bytes(nbytes=8), tag=2)"
        )
        assert repr(RecvOp(source=0)) == (
            "RecvOp(source=0, tag=0, timeout=-1.0, cancellable=False)"
        )
