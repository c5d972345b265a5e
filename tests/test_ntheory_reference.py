"""The number theory and the quadratic character against sympy, which
shares no code with the package: factorizations, primality and totients up
to the CLI's largest prime, the smallest primitive roots of the odd prime
powers in that range, and the Jacobi symbol at every residue of every odd
squarefree modulus below 1000."""
from eulertwist.characters import quadratic_character
from eulertwist.cli import MAX_PRIME
from eulertwist.ntheory import euler_phi, factorize, is_prime, primitive_root
from test_cyclotomic_reference import needs_sympy, sympy


@needs_sympy
def test_factorize_is_prime_and_euler_phi_against_sympy():
    primes = set(sympy.primerange(MAX_PRIME + 1))
    assert not any(is_prime(n) for n in range(-2, 1))
    for n, phi in zip(range(1, MAX_PRIME + 1), sympy.sieve.totientrange(1, MAX_PRIME + 1)):
        assert factorize(n) == sympy.factorint(n), n
        assert is_prime(n) == (n in primes), n
        assert euler_phi(n) == phi, n


@needs_sympy
def test_primitive_root_is_the_smallest_generator_of_each_odd_prime_power():
    for n in range(3, MAX_PRIME + 1, 2):
        if len(sympy.factorint(n)) == 1:
            assert primitive_root(n) == sympy.primitive_root(n), n


@needs_sympy
def test_quadratic_character_is_the_jacobi_symbol():
    from sympy.external.gmpy import jacobi  # sympy.jacobi_symbol's kernel, without its per-call checks

    value = {None: 0, 0: 1, 1: -1}
    for d in range(3, 1000, 2):
        if max(sympy.factorint(d).values()) == 1:
            char = quadratic_character(d)
            assert char.value_order == 2, d
            assert [value[e] for e in char.exponents] == [jacobi(a, d) for a in range(d)], d
