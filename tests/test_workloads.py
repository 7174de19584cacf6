"""Corpus-level tests: every workload builds, runs, halts, and — where a
Python reference is practical — computes the right answer."""

import binascii
import math

import numpy as np
import pytest

from repro.workloads import (
    all_workloads,
    build_workload,
    domains,
    get_workload,
    workload_names,
)
from repro.workloads._support import Lcg
from repro.sim import run_program

NAMES = workload_names()


@pytest.fixture(scope="module")
def finished():
    """Run every workload once; cache the finished simulators."""
    cache = {}

    def run(name):
        if name not in cache:
            program = build_workload(name)
            simulator = run_program(program, max_instructions=5_000_000,
                                    trace=False)
            cache[name] = (program, simulator)
        return cache[name]

    return run


class TestRegistry:
    def test_twenty_three_workloads(self):
        assert len(NAMES) == 23

    def test_paper_table1_domains_present(self):
        table = domains()
        assert set(table) == {"automotive", "consumer", "media", "network",
                              "office", "security", "telecom"}

    def test_domain_sizes(self):
        table = domains()
        assert table["automotive"] == ["basicmath", "bitcount", "qsort",
                                       "susan"]
        assert table["network"] == ["dijkstra", "patricia"]
        assert len(table["telecom"]) == 4

    def test_suites(self):
        suites = {spec.suite for spec in all_workloads()}
        assert suites == {"mibench", "mediabench"}

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_workload("doom")

    def test_sources_deterministic(self):
        spec = get_workload("crc32")
        assert spec.source() == spec.source()

    @pytest.mark.parametrize("name", NAMES)
    def test_cached_source_matches_fresh_build(self, name):
        spec = get_workload(name)
        cached = spec.source()
        assert spec.source() is cached  # the builder ran once
        assert cached == spec.source_builder()


@pytest.mark.parametrize("name", NAMES)
class TestEveryWorkload:
    def test_builds_and_halts(self, name, finished):
        program, simulator = finished(name)
        assert simulator.halted
        assert 20_000 <= simulator.instructions_executed <= 1_000_000

    def test_has_memory_and_branch_activity(self, name):
        program = build_workload(name)
        trace = run_program(program, max_instructions=5_000_000)
        summary = trace.summary()
        assert summary["memory_ops"] / summary["instructions"] > 0.02
        assert summary["branches"] / summary["instructions"] > 0.01


class TestQsort:
    def test_array_is_sorted(self, finished):
        program, simulator = finished("qsort")
        base = program.data_symbols["arr"]
        n = simulator.memory.read_word(program.data_symbols["nelem"])
        values = simulator.memory.read_words(base, n)
        assert values == sorted(values)

    def test_same_multiset(self, finished):
        program, simulator = finished("qsort")
        base = program.data_symbols["arr"]
        n = simulator.memory.read_word(program.data_symbols["nelem"])
        values = simulator.memory.read_words(base, n)
        assert sorted(Lcg(0x5047).words(n, 1 << 20)) == values


class TestCrc32:
    def test_matches_zlib_crc(self, finished):
        program, simulator = finished("crc32")
        data = bytes(Lcg(0xC3C).bytes(9 * 1024))
        expected = binascii.crc32(data) & 0xFFFFFFFF
        result = simulator.memory.read_word(program.data_symbols["result"])
        assert result == expected


class TestBitcount:
    def test_both_methods_agree_with_popcount(self, finished):
        program, simulator = finished("bitcount")
        data = Lcg(0xB17C).words(640)
        expected = sum(bin(v).count("1") for v in data)
        counts = program.data_symbols["counts"]
        assert simulator.memory.read_word(counts) == expected
        assert simulator.memory.read_word(counts + 4) == expected


class TestBasicmath:
    def test_isqrt_results(self, finished):
        program, simulator = finished("basicmath")
        inputs = Lcg(0xB451C)
        # Reproduce the input stream: skip the cubic coefficients.
        for _ in range(280 * 3):
            inputs.doubles(1, -3.0, 3.0)
        values = inputs.words(380, 1 << 26)
        base = program.data_symbols["isq_out"]
        outputs = simulator.memory.read_words(base, 380)
        for value, output in zip(values, outputs):
            assert output == math.isqrt(value)

    def test_cubic_roots_are_roots(self, finished):
        program, simulator = finished("basicmath")
        rng = Lcg(0xB451C)
        roots_base = program.data_symbols["roots"]
        converged = 0
        for index in range(280):
            a, b, c = (round(v, 6) for v in rng.doubles(3, -3.0, 3.0))
            x = simulator.memory.read_double(roots_base + 8 * index)
            assert math.isfinite(x)
            residual = ((x + a) * x + b) * x + c
            if abs(residual) < 1e-3:
                converged += 1
        # Twelve fixed Newton steps from x0=1 converge for the large
        # majority of coefficient draws (some oscillate, as in the real
        # kernel with a fixed iteration count).
        assert converged > 190

    def test_deg2rad(self, finished):
        program, simulator = finished("basicmath")
        rng = Lcg(0xB451C)
        for _ in range(280 * 3):
            rng.doubles(1, -3.0, 3.0)
        rng.words(380, 1 << 26)
        degrees = [round(v, 6) for v in rng.doubles(600, 0.0, 360.0)]
        base = program.data_symbols["rads"]
        for index in (0, 100, 599):
            measured = simulator.memory.read_double(base + 8 * index)
            assert measured == pytest.approx(math.radians(degrees[index]),
                                             rel=1e-12)


class TestDijkstra:
    def test_distances_match_networkx(self, finished):
        import networkx
        program, simulator = finished("dijkstra")
        n, inf = 36, 1 << 28
        rng = Lcg(0xD1357)
        graph = networkx.DiGraph()
        graph.add_nodes_from(range(n))
        for row in range(n):
            for col in range(n):
                if row == col:
                    continue
                if rng.below(100) < 30:
                    graph.add_edge(row, col, weight=1 + rng.below(100))
        expected_total = 0
        for source in range(5):
            lengths = networkx.single_source_dijkstra_path_length(
                graph, source, weight="weight")
            expected_total += sum(length for node, length in lengths.items())
        measured = simulator.memory.read_word(program.data_symbols["total"])
        assert measured == expected_total


class TestSha:
    def _reference_digest(self):
        rng = Lcg(0x5A1)
        words = rng.words(16 * 36)
        h = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0]
        mask = 0xFFFFFFFF

        def rotl(value, amount):
            return ((value << amount) | (value >> (32 - amount))) & mask

        for block in range(36):
            w = list(words[16 * block:16 * block + 16])
            for t in range(16, 80):
                w.append(rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1))
            a, b, c, d, e = h
            for t in range(80):
                if t < 20:
                    f, k = (b & c) | (~b & d), 0x5A827999
                elif t < 40:
                    f, k = b ^ c ^ d, 0x6ED9EBA1
                elif t < 60:
                    f, k = (b & c) | (b & d) | (c & d), 0x8F1BBCDC
                else:
                    f, k = b ^ c ^ d, 0xCA62C1D6
                temp = (rotl(a, 5) + f + e + k + w[t]) & mask
                e, d, c, b, a = d, c, rotl(b, 30), a, temp
            h = [(x + y) & mask for x, y in zip(h, (a, b, c, d, e))]
        return h

    def test_digest_matches_reference(self, finished):
        program, simulator = finished("sha")
        base = program.data_symbols["digest"]
        measured = [simulator.memory.read_word(base + 4 * i)
                    for i in range(5)]
        assert measured == self._reference_digest()


class TestPatricia:
    def test_hit_count_matches_membership(self, finished):
        program, simulator = finished("patricia")
        rng = Lcg(0xA731)
        inserts = rng.words(360)
        lookups = []
        for i in range(850):
            if i % 2 == 0:
                lookups.append(inserts[rng.below(360)])
            else:
                lookups.append(rng.next_u32() & 0x7FFFFFFF)
        inserted = set(inserts)
        expected = sum(1 for key in lookups if key in inserted)
        measured = simulator.memory.read_word(program.data_symbols["hits"])
        assert measured == expected


class TestIspell:
    def test_correct_count(self, finished):
        program, simulator = finished("ispell")
        rng = Lcg(0x15B)
        dictionary = [tuple(rng.bytes(8, 26)) for _ in range(420)]
        queries = []
        for i in range(700):
            if i % 2 == 0:
                queries.append(dictionary[rng.below(420)])
            else:
                queries.append(tuple(rng.bytes(8, 26)))
        words = set(dictionary)
        expected = sum(1 for query in queries if query in words)
        measured = simulator.memory.read_word(
            program.data_symbols["correct"])
        assert measured == expected


class TestFft:
    def test_matches_numpy_fft(self, finished):
        program, simulator = finished("fft")
        # Rebuild signal 2 (the last one left in the work arrays).
        rng = Lcg(0xFF7)
        signals = []
        for s in range(3):
            phase = 0.0
            signal = []
            for _ in range(256):
                phase += 0.19 + 0.11 * s
                signal.append(round(math.sin(phase)
                                    + 0.5 * math.sin(2.7 * phase + s), 9))
            signals.append(signal)
        expected = np.fft.fft(np.array(signals[2]))
        re_base = program.data_symbols["re"]
        im_base = program.data_symbols["im"]
        measured_re = np.array([simulator.memory.read_double(re_base + 8 * i)
                                for i in range(256)])
        measured_im = np.array([simulator.memory.read_double(im_base + 8 * i)
                                for i in range(256)])
        assert np.allclose(measured_re, expected.real, atol=1e-6)
        assert np.allclose(measured_im, expected.imag, atol=1e-6)


class TestTypeset:
    def test_line_breaking_matches_reference(self, finished):
        program, simulator = finished("typeset")
        widths = [2 + Lcg(0x7E5E).below(12) for _ in range(2200)]
        # replay with a fresh LCG (the comprehension above shares one)
        rng = Lcg(0x7E5E)
        widths = [2 + rng.below(12) for _ in range(2200)]
        line_width, length, lines, badness = 62, 0, 0, 0
        for width in widths:
            # Mirror the kernel: the inter-word space is added to the
            # running length *before* the fit test, so the slack of a
            # broken line includes it.
            if length:
                length += 1
            if length + width > line_width:
                slack = line_width - length
                penalty = slack * slack
                if slack >= 20:
                    penalty *= slack
                badness += penalty
                lines += 1
                length = width
            else:
                length += width
        assert simulator.memory.read_word(
            program.data_symbols["lines"]) == lines
        assert simulator.memory.read_word(
            program.data_symbols["badsum"]) == badness & 0xFFFFFFFF


class TestBlowfish:
    def test_encryption_matches_reference(self, finished):
        program, simulator = finished("blowfish")
        rng = Lcg(0xB10F)
        p_array = rng.words(18)
        sboxes = rng.words(4 * 256)
        blocks = rng.words(2 * 220)
        mask = 0xFFFFFFFF

        def feistel(x):
            a, b = (x >> 24) & 0xFF, (x >> 16) & 0xFF
            c, d = (x >> 8) & 0xFF, x & 0xFF
            out = (sboxes[a] + sboxes[256 + b]) & mask
            out ^= sboxes[512 + c]
            return (out + sboxes[768 + d]) & mask

        base = program.data_symbols["blocks"]
        for index in range(0, 6):  # spot-check first blocks
            left, right = blocks[2 * index], blocks[2 * index + 1]
            for round_index in range(16):
                left ^= p_array[round_index]
                right ^= feistel(left)
                left, right = right, left
            left, right = right, left
            right ^= p_array[16]
            left ^= p_array[17]
            measured_l = simulator.memory.read_word(base + 8 * index)
            measured_r = simulator.memory.read_word(base + 8 * index + 4)
            assert (measured_l, measured_r) == (left, right)


class TestG721AndFriends:
    def test_adpcm_codes_in_range(self, finished):
        program, simulator = finished("adpcm")
        base = program.data_symbols["out"]
        codes = [simulator.memory.read_byte(base + i) for i in range(2400)]
        assert all(0 <= code <= 15 for code in codes)
        assert len(set(codes)) > 4  # actually varies

    def test_g721_codes_in_range(self, finished):
        program, simulator = finished("g721")
        base = program.data_symbols["codes"]
        codes = [simulator.memory.read_byte(base + i) for i in range(1300)]
        assert all(0 <= code <= 15 for code in codes)
        assert len(set(codes)) > 4

    def test_epic_pyramid_written(self, finished):
        program, simulator = finished("epic")
        base = program.data_symbols["pyr"]
        top_level = simulator.memory.read_words(base, 8 * 8)
        assert any(value != 0 for value in top_level)
        assert all(0 <= value < 1024 for value in top_level)

    def test_jpeg_dc_coefficients_reasonable(self, finished):
        program, simulator = finished("jpeg")
        base = program.data_symbols["coef"]
        # DC coefficient of block 0 ~ 8 * mean(pixel - 128) / quant[0].
        rng = Lcg(0x1E6)
        image = rng.bytes(32 * 32)
        block = [image[y * 32 + x] - 128 for y in range(8) for x in range(8)]
        dc_estimate = sum(block) // 2 // 16  # cos=1024>>10 twice, quant 16
        measured = simulator.memory.read_word_signed(base)
        assert abs(measured - dc_estimate) <= max(4, abs(dc_estimate))

    def test_rsynth_waveform_nonzero(self, finished):
        program, simulator = finished("rsynth")
        base = program.data_symbols["wave"]
        samples = simulator.memory.read_words(base, 200)
        assert any(samples)
        assert max(abs(s) for s in samples) < 2 ** 20
