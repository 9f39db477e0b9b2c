"""Seeded arrangement generation: determinism, uniformity, pinned shapes.

The uniformity test walks the d-subsets of the normals and the
(d+1)-subsets of the forms with shared exterior products; it is checked
against one rank per (d+1)-subset of the forms and t, the test it
replaced, and every pinned (n, d, seed) must still name the
arrangement it named under that test, down to the last byte.  The draws
read the generator's words directly; they are checked against
`random.randint` value for value, and the arrangements against the
generator as it drew with `randint` (`generate_by_randint`)."""

import hashlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import integer_forms, mk_arrangement
from oracles import (
    every_subset_a_basis_by_ranks,
    general_position_by_ranks,
    generate_by_randint,
)
from omtop.errors import DomainError, ResourceExhausted
from omtop.generate import (
    _COEFF,
    _OFFSET,
    _draw_spec,
    _every_subset_a_basis,
    _in_general_position,
    _parallel_pair,
    _randints,
    generate_arrangement,
)
from omtop.matroid import is_uniform
from omtop.realization import (
    bounded_face_census,
    enumerate_covectors,
    format_arrangement,
    homogenize,
    is_essential,
)


class TestDeterminism:
    def test_same_seed_same_arrangement(self):
        a = generate_arrangement(5, 2, seed=9)
        b = generate_arrangement(5, 2, seed=9)
        assert format_arrangement(a) == format_arrangement(b)

    def test_labels(self):
        a = generate_arrangement(4, 2, seed=0)
        assert a.labels == ("h1", "h2", "h3", "h4")


class TestGeneratedAreUniform:
    @pytest.mark.parametrize(
        "n,d,seed", [(3, 1, 0), (4, 2, 1), (5, 2, 3), (4, 3, 0), (6, 3, 1)]
    )
    def test_uniform_and_essential(self, n, d, seed):
        a = generate_arrangement(n, d, seed=seed)
        assert a.dim == d and a.n == n
        assert is_essential(a)
        assert _in_general_position(a.rows, a.dim)
        assert is_uniform(enumerate_covectors(homogenize(a))).uniform


class TestPinnedCensuses:
    def test_four_generic_lines_have_three_bounded_cells(self):
        # n generic lines bound C(n-1, 2) regions; 4 lines give 3
        census = bounded_face_census(generate_arrangement(4, 2, seed=1))
        assert census == (6, 8, 3)

    def test_three_generic_lines_are_a_triangle(self):
        census = bounded_face_census(generate_arrangement(3, 2, seed=7))
        assert census == (3, 3, 1)

    @pytest.mark.parametrize(
        "d,expected",
        [(1, (2, 1)), (2, (3, 3, 1)), (3, (4, 6, 4, 1))],
    )
    def test_d_plus_one_hyperplanes_bound_a_simplex(self, d, expected):
        census = bounded_face_census(generate_arrangement(d + 1, d, seed=3))
        assert census == expected


class TestBeyondTheEnumerationCap:
    def test_generation_never_enumerates_covectors(self, tmp_path, capsys):
        # 12 hyperplanes plus the element at infinity were past the old
        # 12-form enumeration cap, which bound verification but never
        # generation; the covector cap lets them verify
        from omtop.cli import main

        a = generate_arrangement(12, 2, seed=0)
        assert a.n == 12 and _in_general_position(a.rows, a.dim)
        p = tmp_path / "twelve.arr"
        p.write_text(format_arrangement(a))
        assert main(["verify", str(p)]) == 0
        assert "verdict: ball-certified" in capsys.readouterr().out


class TestErrors:
    def test_dimension_must_be_positive(self):
        with pytest.raises(DomainError):
            generate_arrangement(3, 0, seed=0)

    def test_too_few_hyperplanes(self):
        with pytest.raises(DomainError, match="d\\+1"):
            generate_arrangement(2, 2, seed=0)

    def test_try_cap_exhausts(self):
        with pytest.raises(ResourceExhausted):
            generate_arrangement(4, 2, seed=0, max_tries=0)


# sha256 of format_arrangement(generate_arrangement(n, d, seed)) as drawn
# by the rank-per-subset test; the benchmark's instances are among them
PINNED = {
    (2, 1, 0): "20a042781a47bc7930a72a7cf10e07b3c2b0138b08ae1ab2580edc2696fcd744",
    (5, 1, 1): "1d6952678e0cc3ef513cd382966aff3afd66b3f42b43c27544f6da30d6f2ab04",
    (7, 1, 2): "9f2d5cab030b2ba08a4c924f105f238c2c44f0337d02a2c7795389ddfc8cf26c",
    (3, 2, 7): "67a3d9bed618609372442572c5c6efbc16034454b23212a3f2b96aaa6ed8b119",
    (4, 2, 1): "16399f947355cf85678bbed23292fa5cb3b767a26a4e394561621936ada4c99e",
    (5, 2, 3): "e28327a6950d62b5d44f05ffcb88675e55cf1b2e6244f3e5c2997d554708c136",
    (5, 2, 9): "ade78fa531127157ba955006638e130aaa343a82569e97a6eeb814fcdc15d5fd",
    (8, 2, 0): "f918841cbe4410d776d0a161c77d764613238a41d7ba67cd6d64836b645e447f",
    (8, 2, 1000): "64333e864f62127af95236781937b273ef520cc81eaace78747afe6ad8e22cf1",
    (8, 2, 2000): "2d98fa46c6dad550573e097520605be796cedb3e5111dcf2f1a34e225cfa9163",
    (11, 2, 0): "1defa8fca729085fb4f983851faa4395df11ac8bb32d45ac5ab0501bad5dfdbe",
    (12, 2, 0): "ad5c265435df69635bfbe336c538c6ac642f6c9646fcc8dad8323790291a0627",
    (13, 2, 0): "6039a15198e1738382dae8d4c4b51bde289937087347eb43b8d7bcab27ef4421",
    (4, 3, 0): "6f9ee3a1f2036f5294699028c4ac2595608a6d1f469c5bd4324d4e0965ad6389",
    (5, 3, 1): "717a08a21b76e4eb381d17846dc18f77feaed846d1a9985c38f7f5e561bc01d1",
    (5, 3, 1001): "7342278f12aa9d80fa32511b589c94245641151685a75344b509e7d5f57917d3",
    (5, 3, 2001): "dfb6be48e4fa9f6215de292f7e5d6e84e12d680dc6d80398c9cc3b35bdf6cbca",
    (6, 3, 1): "f3cf3e934e1c9e42d5af4f0c5c774c9d907855248b2122eb991e5ff63bcd39d7",
    (8, 3, 0): "edb8a98776a6952225eb239c18b1bf5d9cbfc8b64828d196e39ddd5132777cd6",
    (12, 3, 0): "6890991a7320304839f456afd43fb9e7a4596edabf13a2d2c47b3578e8b14b32",
    (5, 4, 0): "eeb4191d0db46f50f2afda01258f62d4df675fe50a090bcaff121b34f41b2461",
    (5, 4, 2): "13e43c772bec4d110eca15dd116303a09476ab06b78e84a3bd65b7d744300cc3",
    (5, 4, 1002): "2be3191fe327fe9a89fd74a959ad30587f91db13c335790ceee74d21a52527cd",
    (5, 4, 2002): "371274aa7f253c0459db182ed4128c93c3a716111f4a4e8575603272de57f6f6",
    (6, 4, 0): "b53432826734603c5f65832c970e0f223a29f90a598df4e84004d94470fc189f",
    (7, 4, 0): "42e020bbdb8dbd008649f8c556cc88082aceb795ab7217d75b716b1e4735d386",
    (9, 4, 0): "2bcda9a00fa6053eb27a88371dfb36695d5d2ac13fe4cc7ea7b216cb82a1210c",
    (6, 5, 0): "614e22cf41e4d16500391b00604bb0f33432a140d2d55470d0e8fd79ba1053ac",
    (7, 5, 1): "f54c1440ea47f1b5ae998dd39c84dcacfcbae10a84114ada2b3923c2c2ba5f48",
    (8, 5, 0): "a660d5e0851d7eb612147ef9dbbde4fce91bb8b3f2128a3153ee2529f36b735c",
    (9, 5, 0): "ecc8361711cbd10c3d8c1366dbec31266e36807bd7de019287192734224cd7a5",
    (7, 6, 0): "19684e1acedbdddfe50a2eeb4f03d3376dc4816bb6f75e53d6412a46a531fce7",
    (8, 6, 0): "1cdae7ac756c53f3d2e3eef5c0e4ea3f590a38600b5c9bba71f1fb37b9de2f47",
}


class TestSameDrawsAsTheRankTest:
    @pytest.mark.parametrize("n,d,seed", sorted(PINNED))
    def test_pinned_arrangement(self, n, d, seed):
        A = generate_arrangement(n, d, seed=seed)
        text = format_arrangement(A)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED[n, d, seed]
        assert _in_general_position(A.rows, A.dim)
        assert general_position_by_ranks(A)

    @pytest.mark.parametrize("n,d", [(14, 3), (15, 2)])
    def test_no_uniform_draw_in_the_box(self, n, d):
        # 200 draws from {-5..5}^d, none in general position
        with pytest.raises(ResourceExhausted, match="200 draws"):
            generate_arrangement(n, d, seed=0)


@st.composite
def _arrangements(draw):
    """Up to 7 hyperplanes in dimension 1-4 with small integer entries:
    random, or with a parallel or repeated hyperplane, or all through
    one point."""
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(dim + 1, 7))
    normal = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(
        any
    )
    normals = draw(st.lists(normal, min_size=n, max_size=n))
    offsets = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    kind = draw(st.sampled_from(("random", "parallel", "repeated", "point")))
    if kind in ("parallel", "repeated"):
        normals[-1] = normals[0]
        if kind == "repeated":
            offsets[-1] = offsets[0]
    elif kind == "point":
        p = draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))
        offsets = [sum(a * x for a, x in zip(v, p)) for v in normals]
    rows = [(f"h{i}", tuple(v), b) for i, (v, b) in
            enumerate(zip(normals, offsets))]
    return mk_arrangement(dim, rows)


class TestWedgeWalkAgainstRanks:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_arrangements())
    def test_general_position(self, A):
        assert _in_general_position(A.rows, A.dim) == (
            general_position_by_ranks(A)
        )

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(integer_forms())
    def test_every_subset_a_basis(self, forms):
        k = len(forms[0])
        assume(len(forms) >= k)
        assert _every_subset_a_basis(forms, k) == (
            every_subset_a_basis_by_ranks(forms, k)
        )


class TestDraws:
    @pytest.mark.parametrize("lo,hi", [(-5, 5), (-6, 6), (1, 3)])
    def test_randints_are_randint(self, lo, hi):
        # the generator's three ranges, 100 draws at each of 1,000 seeds
        assert _draw_spec(lo, hi) in (_COEFF,) + _OFFSET
        spec = [_draw_spec(lo, hi)] * 100
        for seed in range(1000):
            want = random.Random(seed)
            assert _randints(random.Random(seed), spec) == [
                want.randint(lo, hi) for _ in range(100)
            ]

    def test_interleaved_ranges_keep_the_stream(self):
        # offsets alternate two ranges; the stream after them is shared
        for seed in range(200):
            want, got = random.Random(seed), random.Random(seed)
            pairs = [(want.randint(-6, 6), want.randint(1, 3))
                     for _ in range(9)]
            flat = _randints(got, _OFFSET * 9)
            assert list(zip(flat[::2], flat[1::2])) == pairs
            assert got.random() == want.random()


class TestParallelReject:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.data())
    def test_parallel_normals_fail_the_walk(self, data):
        # for d >= 2 a draw the parallel test rejects is one the wedge
        # walk rejects too
        d = data.draw(st.integers(2, 4))
        n = data.draw(st.integers(d + 1, 7))
        normal = st.tuples(*[st.integers(-5, 5)] * d).filter(any)
        normals = data.draw(st.lists(normal, min_size=n, max_size=n))
        offsets = data.draw(st.lists(
            st.tuples(st.integers(-6, 6), st.integers(1, 3)),
            min_size=n, max_size=n,
        ))
        if data.draw(st.booleans()):
            i, j = data.draw(st.permutations(range(n)))[:2]
            k = data.draw(st.sampled_from((-2, -1, 2)))
            normals[j] = tuple(k * c for c in normals[i])
        if not _parallel_pair(normals):
            return
        forms = [(0,) * d + (1,)] + [
            tuple(den * c for c in a) + (-num,)
            for a, (num, den) in zip(normals, offsets)
        ]
        assert not _every_subset_a_basis(forms, d + 1)

    def test_known_pairs(self):
        assert _parallel_pair([(1, 2), (3, 1), (-2, -4)])
        assert _parallel_pair([(0, 3), (0, -1)])
        assert not _parallel_pair([(1, 2), (2, 1), (1, -2)])
        assert not _parallel_pair([(1, 0, 0), (0, 1, 0), (1, 1, 0)])


# sha256 over seeds 0-7 (only those listed for d >= 5 and beyond n = 11)
# of repr(generate_arrangement(n, d, seed)) + "\n", as drawn with one
# `random.randint` per coefficient and no parallel-normal test
REPR_DIGESTS = {
    (2, 1): "b2cef5cc3f559469b69d8574bea67a689f179f391d276d6856e27f4d4ab4abb8",
    (3, 1): "1fb3e78b5bc0ba658a3513da52fe8d9dfcdb229c05033de69fe1ba5cd433bcc2",
    (4, 1): "f37fd3bcf6bf1d3e329960bc09fbc9036c010da06e707d3ef904d79bdd44db47",
    (5, 1): "a07b5891c3185aaf777f49bddffe2986fd74003d96ffdbc83b65eaf45f374646",
    (6, 1): "27d57d00f0a0e61f2eccbe287adc3fa71bb299b37373f786b15ff6fcbe4550f4",
    (7, 1): "ab21aa1fab6b80e135f475b748a2c103edff7c8a7951c037cc1786a7e1bdff5c",
    (8, 1): "d12917d19a9bfbe485f9435895afe3f5f978bbc877d4670f9e83de4090763563",
    (9, 1): "8213a52e0e65daa608147d89cbf82477ff80e63f4db1d891e0f3c75822590201",
    (10, 1): "792ed4aaa9d6f79e0fd4eed222dce5d5a100460bc9277c967ca587dc6acc9704",
    (11, 1): "56d5291e350957832cbb3a77ad17a0ac600b770a8f4a308a236cb5577f01fb96",
    (3, 2): "18229d0be599424cd167265dfdfbcac4ef7a7630fcc354adde805565131b515e",
    (4, 2): "27b9a3fe435ec7322e55854b304c99d7a7addcb6210b959ea87e47670fb49b57",
    (5, 2): "e8f680e6b69ade82d7618fa8d8d0cdc243e1d8b751a2a2e2d92fd8f65908d026",
    (6, 2): "62cfcd81ca90fdefe084c6589cd7f667bde4378f8946806f8db22ad8a12ba9bd",
    (7, 2): "52f7df8d2b125505212f9625844ea929d0a0064134134e08fa4bf48333a22827",
    (8, 2): "146187b6cf5d00d9899667106bfdab1cdca1648d5bbef200bd281f2943b73397",
    (9, 2): "eef5eb7ae921fc5275343bffe85154321dcef43eee3a93b0acea20413c0d85d6",
    (10, 2): "1145a9e2ff7e154ebb59338e73f452db32b8ee17e63ec64f6619e9106c62c56f",
    (11, 2): "e944bfb5e57929431b1e2e89246c79cf6f4d7bf483a805dd3a2f8ccedbac0c47",
    (4, 3): "89bef6f85ec2aefefeee94955d9817fe7f234fcad7f3c06d67828c881945bc82",
    (5, 3): "7e0d5bf87bb1ad7d011969273f2c80370c11686aa3e844bc52147dd9d48cd645",
    (6, 3): "11c947a189b79367d6d582adb8f087e1fc0aa37753d9accd25991c022c714fab",
    (7, 3): "786e1eba0816d98753d531e02fe9c1c93c82160833f4466e6681582ef7e685f4",
    (8, 3): "c807629630943df096f512cd2f3fbe8b2a3239226ef19a9c0ec90daf947e9026",
    (9, 3): "38522567f4f0817529ed81b81dbff4c485abb0a623a57c48dd2b5c2719f644e7",
    (10, 3): "8ec11e54d202dd2e9df2c64b3079dc0eff80439e8e712a765507b280b6756dc8",
    (11, 3): "74a6d97206863011fcea4f269c6e13ca81bc3bcf918276f4e136e752fa2854a9",
    (5, 4): "9cc3069e5eeb836c329124e69faf14ed9d925182e341e72c552c639d42a6b343",
    (6, 4): "80f5760abb566be98ee91bb6e699109d68b0d83c831ddb2e4a5df3430173eee1",
    (7, 4): "5e6f51f5d1f47d5d7a567927594a5b10c5fe06c4a14870eaba71ef17682a4e01",
    (8, 4): "a85fbe24e3b1f8f1e34a823f323b11f15a4f51c64f341346d71eb12a34af2091",
    (9, 4): "af8cfc14cf5d267c20b2fe9329452eac62017f446575db0e6c6dd929ec7df29a",
    (10, 4): "dbe4308274a8fd4a208ea61f9196ffb6a1ee2666f6a34ea12269b20372d9f8c2",
    (11, 4): "d72f459eb655153d04cdcfaa9b85140f45e14dbe77e38e3d7a561bcb28844ac4",
    (7, 5): "a83168b68d5550acc31e6e7202787a35977d80a02c321c8219cae222bde63974",
    (8, 5): "94a1147c5f5a46c3ec71e5af338cf6944e03ce4e59ada5d45824e82ddf875a88",
    (9, 5): "5bc1d095dda4ea8a444307c88db190cbee767fddc10405c39c38db7c93fb187a",
    (8, 6): "7cbab1a5e4d35fa8fabeeed3456743a2e769d25babf17238fa2018996c6627e6",
    (8, 7): "a65cc4d9515a2255315b745c0181f99174f2a6350ce65a15413e712198f17a55",
    (12, 3): "2ac69c62d4a3fa57d910de0a9de749a9c8b545f933739ea48336c11171d5c23d",
    (13, 2): "a4995499af58b60c20498875918e1b1daf74573e723d0d5f2e37908450fa77a6",
}
REPR_SEEDS = {(7, 5): range(4)}


def _repr_digest(generate, n: int, d: int) -> str:
    seeds = REPR_SEEDS.get((n, d), range(8) if n <= 11 and d <= 4 else [0])
    h = hashlib.sha256()
    for seed in seeds:
        h.update(repr(generate(n, d, seed)).encode() + b"\n")
    return h.hexdigest()


class TestSameDrawsAsRandint:
    @pytest.mark.parametrize("n,d", sorted(REPR_DIGESTS))
    def test_repr_digest(self, n, d):
        assert _repr_digest(generate_arrangement, n, d) == REPR_DIGESTS[n, d]

    @pytest.mark.parametrize("n,d", [(2, 1), (6, 2), (11, 2), (7, 4), (7, 5)])
    def test_randint_oracle(self, n, d):
        assert _repr_digest(generate_by_randint, n, d) == REPR_DIGESTS[n, d]
