from itertools import product

import numpy as np
import pytest

from siotsec import ImageTensor, RngSeed, gaussian_blur, random_image, read_pnm, write_pnm
from siotsec.images import gaussian_kernel


def test_image_validation():
    with pytest.raises(ValueError):
        ImageTensor(np.full((4, 4, 1), 1.5))
    with pytest.raises(ValueError):
        ImageTensor(np.full((4, 4, 1), -0.1))
    with pytest.raises(ValueError):
        ImageTensor(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        ImageTensor(np.full((4, 4, 1), np.nan))


def test_image_is_immutable():
    img = random_image(4, 4, 1, RngSeed(1, 0))
    with pytest.raises(ValueError):
        img.values[0, 0, 0] = 0.5


def test_random_image_deterministic():
    a = random_image(8, 8, 3, RngSeed(5, 2))
    b = random_image(8, 8, 3, RngSeed(5, 2))
    assert np.array_equal(a.values, b.values)
    c = random_image(8, 8, 3, RngSeed(5, 3))
    assert not np.array_equal(a.values, c.values)


def test_kernel_normalized():
    for sigma, radius in ((0.5, 1), (1.5, 3), (4.0, 10)):
        k = gaussian_kernel(sigma, radius)
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(k > 0.0)
    with pytest.raises(ValueError):
        gaussian_kernel(0.0, 3)
    with pytest.raises(ValueError):
        gaussian_kernel(1.0, 0)


def test_blur_constant_image_is_identity():
    img = ImageTensor(np.full((10, 12, 1), 0.37))
    out = gaussian_blur(img, 1.5, 3)
    assert np.allclose(out.values, 0.37, atol=1e-12)


def test_blur_near_delta_kernel():
    img = random_image(9, 9, 1, RngSeed(2, 0))
    out = gaussian_blur(img, 0.05, 1)
    assert np.max(np.abs(out.values - img.values)) < 1e-6


def test_blur_preserves_interior_mass():
    vals = np.zeros((16, 16, 1))
    vals[8, 8, 0] = 1.0
    out = gaussian_blur(ImageTensor(vals), 1.5, 3)
    assert out.values.sum() == pytest.approx(1.0, abs=1e-9)


def test_blur_matches_direct_convolution():
    img = random_image(12, 10, 1, RngSeed(3, 0))
    sigma, radius = 1.5, 3
    k = gaussian_kernel(sigma, radius)
    kernel2d = np.outer(k, k)
    padded = np.pad(img.values[:, :, 0], radius, mode="edge")
    expected = np.empty((12, 10))
    for i in range(12):
        for j in range(10):
            expected[i, j] = np.sum(padded[i:i + 2 * radius + 1, j:j + 2 * radius + 1] * kernel2d)
    out = gaussian_blur(img, sigma, radius)
    assert np.allclose(out.values[:, :, 0], expected, atol=1e-12)


def test_blur_semigroup():
    # replicate padding breaks the semigroup in a band near the borders, so
    # the 1e-3 mean bound needs an image large enough that edges do not
    # dominate; the interior composes to numerical precision
    img = random_image(128, 128, 1, RngSeed(4, 0))
    sigma, r_each, r_once = 1.5, 8, 12
    twice = gaussian_blur(gaussian_blur(img, sigma, r_each), sigma, r_each)
    once = gaussian_blur(img, sigma * np.sqrt(2.0), r_once)
    diff = np.abs(twice.values - once.values)
    assert diff.mean() < 1e-3
    assert diff[r_once:-r_once, r_once:-r_once].max() < 1e-6


def test_blur_output_in_range():
    img = random_image(8, 8, 3, RngSeed(6, 0))
    out = gaussian_blur(img, 2.0, 4)
    assert out.values.min() >= 0.0 and out.values.max() <= 1.0


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 3), (2, 7, 1), (9, 4, 3), (16, 16, 1),
                                   (32, 32, 3)])
def test_blur_equals_ndimage_bit_for_bit(shape):
    from scipy import ndimage  # the reference the numpy blur must reproduce exactly

    img = random_image(*shape, RngSeed(sum(shape), 7))
    for sigma, radius in product((0.05, 0.3, 1.5, 4.0, 10.0), (1, 3, 8, 20)):
        k = gaussian_kernel(sigma, radius)
        expected = np.empty(shape)
        for c in range(shape[2]):
            plane = ndimage.convolve1d(img.values[:, :, c], k, axis=0, mode="nearest")
            expected[:, :, c] = ndimage.convolve1d(plane, k, axis=1, mode="nearest")
        out = gaussian_blur(img, sigma, radius)
        assert np.array_equal(out.values, np.clip(expected, 0.0, 1.0)), (sigma, radius)


def test_pnm_gray_roundtrip(tmp_path):
    vals = (np.arange(20).reshape(5, 4, 1) % 256) / 255.0
    img = ImageTensor(vals)
    path = tmp_path / "img.pgm"
    write_pnm(img, path)
    text = path.read_text()
    assert text.startswith("P2\n4 5\n255\n")
    back = read_pnm(path)
    assert back.values.shape == (5, 4, 1)
    assert np.allclose(back.values, img.values, atol=1e-12)


def test_pnm_color_roundtrip(tmp_path):
    img = ImageTensor(np.rint(random_image(3, 3, 3, RngSeed(7, 0)).values * 255) / 255.0)
    path = tmp_path / "img.ppm"
    write_pnm(img, path)
    assert path.read_text().startswith("P3\n3 3\n255\n")
    back = read_pnm(path)
    assert np.allclose(back.values, img.values, atol=1e-12)


def pnm_per_pixel(img: ImageTensor) -> bytes:
    """Plain PGM/PPM text written one sample at a time, rounding halves to even."""
    h, w, c = img.values.shape
    lines = ["P2" if c == 1 else "P3", f"{w} {h}", "255"]
    for i in range(h):
        lines.append(" ".join(str(round(float(img.values[i, j, k]) * 255))
                              for j in range(w) for k in range(c)))
    return ("\n".join(lines) + "\n").encode("ascii")


# 0, 1 and every rounding tie (k + 0.5) / 255, then a seeded random fill
_LEVELS = np.array([0.0, 1.0] + [(k + 0.5) / 255 for k in range(255)]
                   + list(random_image(1, 31, 1, RngSeed(3, 0)).values.ravel()))


@pytest.mark.parametrize("shape", [(12, 24, 1), (1, 288, 1), (8, 12, 3), (96, 1, 3)])
def test_write_pnm_equals_a_per_pixel_writer(tmp_path, shape):
    img = ImageTensor(np.resize(_LEVELS, shape))
    path = tmp_path / "img.pnm"
    write_pnm(img, path)
    assert path.read_bytes() == pnm_per_pixel(img)


def test_pnm_rejects_bad_payloads(tmp_path):
    with pytest.raises(ValueError):
        write_pnm(random_image(2, 2, 2, RngSeed(0, 0)), tmp_path / "x.pnm")
    bad = tmp_path / "bad.pgm"
    bad.write_text("P5\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ValueError):
        read_pnm(bad)
    bad.write_text("P2\n2 2\n255\n0 0 0\n")
    with pytest.raises(ValueError):
        read_pnm(bad)
    bad.write_text("P2\n2 2\n255\n0 0 0 999\n")
    with pytest.raises(ValueError):
        read_pnm(bad)


# body -> samples read, or None where read_pnm raises ValueError; a 2x1 gray
# image, maxval 9.  As a per-token int() parser reads them, except "0_3",
# which int() reads as 3: PNM samples are plain decimal digits.
_PNM_BODIES = {
    "3 4": [3, 4], "+3 4": [3, 4], "-0 4": [0, 4], "03\n4 # four\n": [3, 4],
    "1.5 2": None, "0x1 2": None, "0_3 4": None, "1e0 2": None, "3,4": None,
    "3": None, "3 4 5": None, "": None,
    "- 3 4": None, "3 4 -": None, "3 + 4": None, "--3 4": None, "3-4 5": None,
    "-1 4": None, "3 10": None,
}


@pytest.mark.parametrize("body", list(_PNM_BODIES))
def test_read_pnm_accepts_and_rejects_sample_bodies(tmp_path, body):
    path = tmp_path / "b.pgm"
    path.write_text(f"P2\n2 1\n9\n{body}")
    want = _PNM_BODIES[body]
    if want is None:
        with pytest.raises(ValueError, match=r"malformed PNM payload|expected 2 samples|"
                                             r"outside \[0, 9\]"):
            read_pnm(path)
    else:
        assert read_pnm(path).values.ravel().tolist() == [v / 9 for v in want]


def test_read_pnm_reads_a_long_body_like_a_per_token_parser(tmp_path):
    img = random_image(32, 32, 3, RngSeed(4, 0))
    path = tmp_path / "long.ppm"
    write_pnm(img, path)
    tokens = path.read_text().split()
    levels = np.array([int(t) for t in tokens[4:]], dtype=float)
    assert np.array_equal(read_pnm(path).values, (levels / 255).reshape(32, 32, 3))
    path.write_text(path.read_text() + "7\n")
    with pytest.raises(ValueError, match="expected 3072 samples, found 3073"):
        read_pnm(path)


def test_pnm_comments_ignored(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_text("P2 # plain gray\n# size\n2 1\n255\n128 255\n")
    img = read_pnm(path)
    assert img.values.shape == (1, 2, 1)
    assert img.values[0, 1, 0] == pytest.approx(1.0)
