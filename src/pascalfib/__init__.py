"""Exact arithmetic for Pascal matrices, their powers modulo primes,
and their Fibonacci structure.

Every name is imported from its own module (`pascalfib.core`,
`pascalfib.fib`, ...); the package itself loads none of them."""

__version__ = "0.1.0"
