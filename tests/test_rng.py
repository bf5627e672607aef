import hashlib

import numpy as np
import pytest

from ticketlab import rng


def test_streams_are_deterministic():
    assert np.array_equal(rng.uniforms(42, 1000), rng.uniforms(42, 1000))
    assert rng.derive(42, 1, 2) == rng.derive(42, 1, 2)


def test_different_seeds_differ():
    assert not np.array_equal(rng.uniforms(1, 100), rng.uniforms(2, 100))


def test_uniform_range_and_spread():
    u = rng.uniforms(7, 100_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1 / 12) < 0.01


def test_derive_order_matters():
    assert rng.derive(5, 1, 2) != rng.derive(5, 2, 1)
    assert rng.derive(5, 1) != rng.derive(5, 2)


def test_prefix_stability():
    """The first n outputs do not depend on how many are requested."""
    assert np.array_equal(rng.raw64(9, 10), rng.raw64(9, 50)[:10])


def test_normals_moments():
    z = rng.normals(3, 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_normals_odd_count():
    assert rng.normals(3, 7).shape == (7,)


def test_permutation_is_a_permutation():
    p = rng.permutation(11, 1000)
    assert np.array_equal(np.sort(p), np.arange(1000))
    assert not np.array_equal(p, np.arange(1000))
    assert np.array_equal(p, rng.permutation(11, 1000))


def test_mix64_stays_in_64_bits():
    assert 0 <= rng.mix64((1 << 64) - 1) < (1 << 64)
    assert 0 <= rng.mix64(0) < (1 << 64)


# Golden digests: every generator must keep its exact bits, since seeds pin
# whole experiments. B is the block size of rng's generators; the counts cover
# block edges, a two-block tail and an odd count of several blocks.
B = 1 << 16
PIN_SEED = 0x5EED
PIN_COUNTS = (0, 1, 2, 3, 7, B - 1, B, B + 1, 2 * B + 1, 1_000_003)
PINS = {
    "raw64": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e7c2842dea641f39b68cdc608dc87fb7ad0a50b3f3de8ac00bcb3174d48791e7",
        "f855e4052b7ecfc246ec63b2634eff35ce03fefdec8259f61b53f7bc105b735f",
        "f54c594bfe8d0fe63a354378d979f69d1effe7592d98bf34dcb1a93ee72616dd",
        "df3b6eed98a6089682751211a0bd0ece75aed9606534bcc4a073874f652cbe1e",
        "3dac011656d4f833cf808bcca07fd276f915d60dec4847c4cc85f72700a2e206",
        "930c7f232cb50a4cba5be971ad1bb5b737234144c9736542e65453aa5aeae35e",
        "96d8ddd063cf7e65ecb4311dbdd8dec2a00b63145bb7db870a3c868825f9288c",
        "ea8af0fb5dcf9f9e3c28f03a069655e72592bd2fad524da454fd4e56a83db602",
        "cea6b13a8403ee567ed65c5cfe92ba458ac65ce526bc05adf2176f62a0af6b0e",
    ),
    "uniforms": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "737848d60f258522e5e40d811a9af1a4fe18a9caf220cfcb6b0e826771711e3e",
        "d3bd402d37812f9ded31b3c3aa6783f46dc7ff16354aed4e3a0d3e85f62bc46e",
        "af0f1dd6cc1e91269197a38321e1ea851aed549b128dfb0653dcd4e2cffd18b4",
        "85833c40426431f236335acc8398cf09ec8495320fd36d61a81e69767372e17a",
        "293c1f2b2660c2f480afb7e67a1e25b13e4e4ec94257ef345b117c0568e4a338",
        "a690c8f143dee178d80972c25162a58d8635b7731775f0d379eb0171937d0e7a",
        "60b83df54859cb60485f9ff7504a343b22ef32ec6793266653f10795e68152ae",
        "2366c4d2a14693745ca6b7091897ea662229a091af2aaa0a78fefd74908b13c9",
        "e8ff48e4a7b413ac92580639f7eca2c653a4195b200d66023050017faa4e3182",
    ),
    "normals": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "4a92dbba54732f8517234803eb76edd74fca335951c520e61faafba72de7f495",
        "3c430d8c38349c6b3962e875534aca8133d4663047ebde4eac03939c1d74764b",
        "e286ded3248050e39783d23c022e09c559f119b8c4dd7598f69cc4a962805050",
        "2c4c97d749e1d8f2fcf77ea4cf43dae8f7a0953f31acc82d50243af3a1c558f8",
        "0b0be72dfe7c12782fe7d4502817ebe7af6a2db4e42161ad047d3c9b5332e89a",
        "d40665317984d75354f2eca7b0e62074223cd4d36a5cc3f4275ad5d0ae34cf34",
        "f004033c2e031c0efbcf8815de6a18ab9929b2f6cb8eb4d7fe60ffd4284ab0e7",
        "8c492b8b8ccfdbaf422b1f8af2a966e906a7628f786a3f003395661c31246eb0",
        "7d2b4fa3bef385a9cd275be0e8481ba317e64c13c2e98b798140c98a20c2ae7f",
    ),
    "permutation": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
        "ab25350e3e65efebe24584461683ecda68725576e825e550038b90e7b1479946",
        "b012585b7e2361d490155c60a6ac6cddeedc60400d53578c4d1bad4e419e61fe",
        "531659f70cc36de36e0880fbbda7178cad53455897059e95596d1c6c37b8139d",
        "155c59cd568bca64d5f7361c89b1b44921ddae0ad90dfe1d80f64556d874abaa",
        "08190cf9dd7a61e14edba979a983368528c47a28c1b080dcff59082ce30d4556",
        "6eaeb6376778b7039e096e7073570f40421a1d320a28ae59a5afffcb8eaa8dbf",
        "69e51f1877e20dd3011e020c9bebdf50c757160ea5ce4dbda123af10a5ecc528",
    ),
}


def sha256_le(a: np.ndarray) -> str:
    """sha256 of the array's elements as little-endian bytes, row-major."""
    return hashlib.sha256(np.ascontiguousarray(a, a.dtype.newbyteorder("<")).tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
@pytest.mark.parametrize("n", PIN_COUNTS)
def test_golden_digest(name, n):
    out = getattr(rng, name)(PIN_SEED, n)
    assert out.shape == (n,)
    assert sha256_le(out) == PINS[name][PIN_COUNTS.index(n)]
