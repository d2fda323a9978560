"""Pinned wrong-path memory model: what each data op leaves behind when
it runs only on a mispredicted path.

Each case puts one of ``lw, lb, sw, sb, push, pop, call, callr, ret``
in the body of a bounds-checked victim, trains the check in bounds and
strikes it out of bounds, so the strike runs the body only on the
wrong path (the pattern of ``tests/cpu/test_speculation.py``).  The
body aims its access at line 3 of a flushed probe array.  Three more
cases aim a wrong-path ``lw``, ``pop`` and ``ret`` at an unmapped
address: the strike's out-of-bounds index moves the address far past
every segment, while the training runs access the probe.  One more,
``callr-sp``, calls through sp itself, so its target is the one the
ISA resolves before the push moves sp (``CONTROL``'s order).

Every case runs on both microarchitectures (the in-order core under
both engines), with and without ``invisible_speculation``, and pins
the L1D and L1I :class:`~repro.cache.cache.CacheStats`, the D-TLB hits
and misses, ``spec_loads``, ``spec_cache_fills``, ``spec_instructions``
and the probe lines left cached.  Together they pin how the walk's
memory effects depart from the committed path's (docs/MICROARCH.md,
"Wrong-path memory model"): push and pop skip the D-TLB, call and
callr write only the store buffer, ret touches neither the D-TLB nor
the L1D, a faulting load still fills while a faulting pop does not,
and ``invisible_speculation`` hides loads only.

A change to any literal is a change to the simulated machine: it moves
the artefacts.  ``python -m tests.cpu.test_wrong_path_memory`` prints
the current measurements.
"""

import dataclasses

import pytest

from repro.cpu import engine_override
from repro.cpu.cpu import CpuConfig
from repro.kernel import System, build_binary
from repro.mem.layout import AddressSpaceLayout
from tests.conftest import run_source

_TEMPLATE = """
main:
    li   a2, 6
train:
    beq  a2, zero, strike
    li   a0, 1
    call victim
    addi a2, a2, -1
    jmp  train
strike:
    la   t1, probe
{flushes}
    mfence
    li   a0, 1000
    call victim
    li   a0, 0
    call libc_exit

victim:
    la   t0, size
    lw   t0, 0(t0)
    bgeu a0, t0, victim_ret
    mov  s0, sp
    la   t1, probe
{body}
victim_ret:
    ret

leaf:
    ret

.data
size: .word 8
    .align 6
probe: .space 192
    .word {landing}
    .space 828
"""

#: Moves t1 from the probe to an unmapped address on the strike only:
#: ``t1 += (a0 - 1) << 20`` is 0 in bounds and 999 MiB out of bounds.
_FAR = """\
    addi t2, a0, -1
    muli t2, t2, 0x100000
    add  t1, t1, t2"""

#: One body per case; each aims at probe line 3 (offset 192).
BODIES = {
    "lw": "    lw   t3, 192(t1)",
    "lb": "    lb   t3, 193(t1)",
    "sw": "    sw   a0, 192(t1)",
    "sb": "    sb   a0, 193(t1)",
    "push": "    addi sp, t1, 196\n    push a0\n    mov  sp, s0",
    "pop": "    addi sp, t1, 192\n    pop  t3\n    mov  sp, s0",
    "call": "    addi sp, t1, 196\n    call leaf\n    mov  sp, s0",
    "callr": ("    la   s1, leaf\n    addi sp, t1, 196\n    callr s1\n"
              "    mov  sp, s0"),
    # ``callr sp, imm`` with sp + imm == leaf: the target is resolved
    # before the push, so the walk calls leaf, whose ret pops the
    # return address from the store buffer.
    "callr-sp": ("    addi sp, t1, 196\n    callr sp, {leaf}\n"
                 "    mov  sp, s0"),
    # Probe line 3 starts with the landing address: the committed ret
    # returns there.
    "ret": "    addi sp, t1, 192\n    ret\nlanding:\n    mov  sp, s0",
    "lw-unmapped": _FAR + "\n    lw   t3, 192(t1)",
    "pop-unmapped": _FAR + "\n    addi sp, t1, 192\n    pop  t3\n"
                           "    mov  sp, s0",
    "ret-unmapped": (_FAR + "\n    addi sp, t1, 192\n    ret\n"
                     "landing:\n    mov  sp, s0"),
}

#: ``(uarch, engine)``: the in-order core under both engines.
CORES = (("inorder", "sb"), ("inorder", "step"), ("ooo", "sb"))


def _source(case, leaf=0):
    flushes = "\n".join(f"    clflush {64 * line}(t1)" for line in range(16))
    landing = "landing" if case.startswith("ret") else 0
    return _TEMPLATE.format(flushes=flushes, body=BODIES[case].format(
        leaf=leaf), landing=landing)


def _leaf_from_sp(case):
    """The immediate taking sp, at probe + 196, to ``leaf``."""
    program = build_binary("testprog", _source(case))
    layout = AddressSpaceLayout()
    return (layout.text_base + program.symbol("leaf").offset
            - layout.data_base - program.symbol("probe").offset - 196)


def measure(case, uarch, engine, invisible):
    """Run *case*; returns its pinned observables as one tuple.

    ``(l1d stats, l1i stats, (dtlb hits, dtlb misses), (spec_loads,
    spec_cache_fills, spec_instructions), cached probe lines)``.
    """
    config = CpuConfig(invisible_speculation=invisible)
    with engine_override(engine):
        process = run_source(_source(case, _leaf_from_sp(case)),
                             system=System(seed=9, uarch=uarch,
                                           cpu_config=config))
    assert process.exit_code == 0
    cpu = process.cpu
    caches = cpu.caches
    pmu = process.pmu.read()
    probe = process.image.address_of("probe")
    return (
        dataclasses.astuple(caches.l1d.stats),
        dataclasses.astuple(caches.l1i.stats),
        (cpu.dtlb.hits, cpu.dtlb.misses),
        (pmu["spec_loads"], pmu["spec_cache_fills"],
         pmu["spec_instructions"]),
        tuple(line for line in range(16)
              if caches.probe_data(probe + 64 * line)),
    )


#: ``(case, uarch, invisible)`` -> :func:`measure`'s tuple.
GOLDEN = {
    ('call', 'inorder', False): (
        (37, 34, 3, 23, 1, 14, 2, 0, 1, 16),
        (85, 79, 6, 85, 6, 0, 0, 0, 0, 16),
        (35, 2),
        (3, 0, 60),
        (),
    ),
    ('call', 'inorder', True): (
        (34, 31, 3, 20, 1, 14, 2, 0, 1, 16),
        (85, 79, 6, 85, 6, 0, 0, 0, 0, 16),
        (32, 2),
        (3, 0, 60),
        (),
    ),
    ('call', 'ooo', False): (
        (37, 34, 3, 23, 1, 14, 2, 0, 1, 16),
        (76, 70, 6, 76, 6, 0, 0, 0, 0, 16),
        (35, 2),
        (3, 0, 51),
        (),
    ),
    ('call', 'ooo', True): (
        (34, 31, 3, 20, 1, 14, 2, 0, 1, 16),
        (76, 70, 6, 76, 6, 0, 0, 0, 0, 16),
        (32, 2),
        (3, 0, 51),
        (),
    ),
    ('callr', 'inorder', False): (
        (37, 34, 3, 23, 1, 14, 2, 0, 1, 16),
        (87, 80, 7, 87, 7, 0, 0, 0, 0, 16),
        (35, 2),
        (3, 0, 61),
        (),
    ),
    ('callr', 'inorder', True): (
        (34, 31, 3, 20, 1, 14, 2, 0, 1, 16),
        (87, 80, 7, 87, 7, 0, 0, 0, 0, 16),
        (32, 2),
        (3, 0, 61),
        (),
    ),
    ('callr', 'ooo', False): (
        (37, 34, 3, 23, 1, 14, 2, 0, 1, 16),
        (77, 70, 7, 77, 7, 0, 0, 0, 0, 16),
        (35, 2),
        (3, 0, 51),
        (),
    ),
    ('callr', 'ooo', True): (
        (34, 31, 3, 20, 1, 14, 2, 0, 1, 16),
        (77, 70, 7, 77, 7, 0, 0, 0, 0, 16),
        (32, 2),
        (3, 0, 51),
        (),
    ),
    ('callr-sp', 'inorder', False): (
        (37, 34, 3, 23, 1, 14, 2, 0, 1, 16),
        (85, 79, 6, 85, 6, 0, 0, 0, 0, 16),
        (35, 2),
        (3, 0, 60),
        (),
    ),
    ('callr-sp', 'inorder', True): (
        (34, 31, 3, 20, 1, 14, 2, 0, 1, 16),
        (85, 79, 6, 85, 6, 0, 0, 0, 0, 16),
        (32, 2),
        (3, 0, 60),
        (),
    ),
    ('callr-sp', 'ooo', False): (
        (37, 34, 3, 23, 1, 14, 2, 0, 1, 16),
        (76, 70, 6, 76, 6, 0, 0, 0, 0, 16),
        (35, 2),
        (3, 0, 51),
        (),
    ),
    ('callr-sp', 'ooo', True): (
        (34, 31, 3, 20, 1, 14, 2, 0, 1, 16),
        (76, 70, 6, 76, 6, 0, 0, 0, 0, 16),
        (32, 2),
        (3, 0, 51),
        (),
    ),
    ('lb', 'inorder', False): (
        (37, 33, 4, 29, 3, 8, 1, 0, 0, 16),
        (82, 76, 6, 82, 6, 0, 0, 0, 0, 16),
        (35, 2),
        (9, 1, 57),
        (3,),
    ),
    ('lb', 'inorder', True): (
        (28, 25, 3, 20, 2, 8, 1, 0, 0, 16),
        (82, 76, 6, 82, 6, 0, 0, 0, 0, 16),
        (26, 2),
        (9, 0, 57),
        (),
    ),
    ('lb', 'ooo', False): (
        (29, 25, 4, 21, 3, 8, 1, 0, 0, 16),
        (34, 28, 6, 34, 6, 0, 0, 0, 0, 16),
        (27, 2),
        (1, 1, 9),
        (3,),
    ),
    ('lb', 'ooo', True): (
        (28, 25, 3, 20, 2, 8, 1, 0, 0, 16),
        (34, 28, 6, 34, 6, 0, 0, 0, 0, 16),
        (26, 2),
        (1, 0, 9),
        (),
    ),
    ('lw', 'inorder', False): (
        (37, 33, 4, 29, 3, 8, 1, 0, 0, 16),
        (82, 76, 6, 82, 6, 0, 0, 0, 0, 16),
        (35, 2),
        (9, 1, 57),
        (3,),
    ),
    ('lw', 'inorder', True): (
        (28, 25, 3, 20, 2, 8, 1, 0, 0, 16),
        (82, 76, 6, 82, 6, 0, 0, 0, 0, 16),
        (26, 2),
        (9, 0, 57),
        (),
    ),
    ('lw', 'ooo', False): (
        (29, 25, 4, 21, 3, 8, 1, 0, 0, 16),
        (34, 28, 6, 34, 6, 0, 0, 0, 0, 16),
        (27, 2),
        (1, 1, 9),
        (3,),
    ),
    ('lw', 'ooo', True): (
        (28, 25, 3, 20, 2, 8, 1, 0, 0, 16),
        (34, 28, 6, 34, 6, 0, 0, 0, 0, 16),
        (26, 2),
        (1, 0, 9),
        (),
    ),
    ('lw-unmapped', 'inorder', False): (
        (35, 31, 4, 27, 3, 8, 1, 0, 0, 16),
        (80, 73, 7, 80, 7, 0, 0, 0, 0, 16),
        (32, 3),
        (7, 1, 54),
        (),
    ),
    ('lw-unmapped', 'inorder', True): (
        (28, 25, 3, 20, 2, 8, 1, 0, 0, 16),
        (80, 73, 7, 80, 7, 0, 0, 0, 0, 16),
        (26, 2),
        (7, 0, 54),
        (),
    ),
    ('lw-unmapped', 'ooo', False): (
        (29, 25, 4, 21, 3, 8, 1, 0, 0, 16),
        (32, 25, 7, 32, 7, 0, 0, 0, 0, 16),
        (26, 3),
        (1, 1, 6),
        (),
    ),
    ('lw-unmapped', 'ooo', True): (
        (28, 25, 3, 20, 2, 8, 1, 0, 0, 16),
        (32, 25, 7, 32, 7, 0, 0, 0, 0, 16),
        (26, 2),
        (1, 0, 6),
        (),
    ),
    ('pop', 'inorder', False): (
        (36, 32, 4, 28, 3, 8, 1, 0, 0, 16),
        (84, 78, 6, 84, 6, 0, 0, 0, 0, 16),
        (30, 2),
        (4, 0, 59),
        (3,),
    ),
    ('pop', 'inorder', True): (
        (32, 28, 4, 24, 3, 8, 1, 0, 0, 16),
        (84, 78, 6, 84, 6, 0, 0, 0, 0, 16),
        (26, 2),
        (4, 0, 59),
        (3,),
    ),
    ('pop', 'ooo', False): (
        (29, 25, 4, 21, 3, 8, 1, 0, 0, 16),
        (36, 30, 6, 36, 6, 0, 0, 0, 0, 16),
        (26, 2),
        (0, 0, 11),
        (3,),
    ),
    ('pop', 'ooo', True): (
        (29, 25, 4, 21, 3, 8, 1, 0, 0, 16),
        (36, 30, 6, 36, 6, 0, 0, 0, 0, 16),
        (26, 2),
        (0, 0, 11),
        (3,),
    ),
    ('pop-unmapped', 'inorder', False): (
        (34, 31, 3, 26, 2, 8, 1, 0, 0, 16),
        (80, 74, 6, 80, 6, 0, 0, 0, 0, 16),
        (29, 2),
        (3, 0, 55),
        (),
    ),
    ('pop-unmapped', 'inorder', True): (
        (31, 28, 3, 23, 2, 8, 1, 0, 0, 16),
        (80, 74, 6, 80, 6, 0, 0, 0, 0, 16),
        (26, 2),
        (3, 0, 55),
        (),
    ),
    ('pop-unmapped', 'ooo', False): (
        (28, 25, 3, 20, 2, 8, 1, 0, 0, 16),
        (32, 26, 6, 32, 6, 0, 0, 0, 0, 16),
        (26, 2),
        (0, 0, 7),
        (),
    ),
    ('pop-unmapped', 'ooo', True): (
        (28, 25, 3, 20, 2, 8, 1, 0, 0, 16),
        (32, 26, 6, 32, 6, 0, 0, 0, 0, 16),
        (26, 2),
        (0, 0, 7),
        (),
    ),
    ('push', 'inorder', False): (
        (36, 32, 4, 18, 1, 18, 3, 0, 1, 16),
        (84, 78, 6, 84, 6, 0, 0, 0, 0, 16),
        (30, 2),
        (4, 0, 59),
        (3,),
    ),
    ('push', 'inorder', True): (
        (32, 28, 4, 14, 1, 18, 3, 0, 1, 16),
        (84, 78, 6, 84, 6, 0, 0, 0, 0, 16),
        (26, 2),
        (4, 0, 59),
        (3,),
    ),
    ('push', 'ooo', False): (
        (34, 30, 4, 17, 1, 17, 3, 0, 1, 16),
        (68, 62, 6, 68, 6, 0, 0, 0, 0, 16),
        (29, 2),
        (3, 0, 43),
        (3,),
    ),
    ('push', 'ooo', True): (
        (31, 27, 4, 14, 1, 17, 3, 0, 1, 16),
        (68, 62, 6, 68, 6, 0, 0, 0, 0, 16),
        (26, 2),
        (3, 0, 43),
        (3,),
    ),
    ('ret', 'inorder', False): (
        (46, 43, 3, 38, 2, 8, 1, 0, 0, 16),
        (272, 266, 6, 272, 6, 0, 0, 0, 0, 16),
        (44, 2),
        (18, 0, 247),
        (),
    ),
    ('ret', 'inorder', True): (
        (28, 25, 3, 20, 2, 8, 1, 0, 0, 16),
        (272, 266, 6, 272, 6, 0, 0, 0, 0, 16),
        (26, 2),
        (18, 0, 247),
        (),
    ),
    ('ret', 'ooo', False): (
        (43, 40, 3, 35, 2, 8, 1, 0, 0, 16),
        (257, 251, 6, 257, 6, 0, 0, 0, 0, 16),
        (41, 2),
        (15, 0, 232),
        (),
    ),
    ('ret', 'ooo', True): (
        (28, 25, 3, 20, 2, 8, 1, 0, 0, 16),
        (257, 251, 6, 257, 6, 0, 0, 0, 0, 16),
        (26, 2),
        (15, 0, 232),
        (),
    ),
    ('ret-unmapped', 'inorder', False): (
        (43, 40, 3, 35, 2, 8, 1, 0, 0, 16),
        (284, 278, 6, 284, 6, 0, 0, 0, 0, 16),
        (41, 2),
        (15, 0, 259),
        (),
    ),
    ('ret-unmapped', 'inorder', True): (
        (28, 25, 3, 20, 2, 8, 1, 0, 0, 16),
        (284, 278, 6, 284, 6, 0, 0, 0, 0, 16),
        (26, 2),
        (15, 0, 259),
        (),
    ),
    ('ret-unmapped', 'ooo', False): (
        (43, 40, 3, 35, 2, 8, 1, 0, 0, 16),
        (254, 248, 6, 254, 6, 0, 0, 0, 0, 16),
        (41, 2),
        (15, 0, 229),
        (),
    ),
    ('ret-unmapped', 'ooo', True): (
        (28, 25, 3, 20, 2, 8, 1, 0, 0, 16),
        (254, 248, 6, 254, 6, 0, 0, 0, 0, 16),
        (26, 2),
        (15, 0, 229),
        (),
    ),
    ('sb', 'inorder', False): (
        (37, 33, 4, 18, 1, 19, 3, 0, 1, 16),
        (82, 76, 6, 82, 6, 0, 0, 0, 0, 16),
        (35, 2),
        (4, 0, 57),
        (3,),
    ),
    ('sb', 'inorder', True): (
        (33, 29, 4, 14, 1, 19, 3, 0, 1, 16),
        (82, 76, 6, 82, 6, 0, 0, 0, 0, 16),
        (31, 2),
        (4, 0, 57),
        (3,),
    ),
    ('sb', 'ooo', False): (
        (35, 31, 4, 17, 1, 18, 3, 0, 1, 16),
        (68, 62, 6, 68, 6, 0, 0, 0, 0, 16),
        (33, 2),
        (3, 0, 43),
        (3,),
    ),
    ('sb', 'ooo', True): (
        (32, 28, 4, 14, 1, 18, 3, 0, 1, 16),
        (68, 62, 6, 68, 6, 0, 0, 0, 0, 16),
        (30, 2),
        (3, 0, 43),
        (3,),
    ),
    ('sw', 'inorder', False): (
        (37, 33, 4, 18, 1, 19, 3, 0, 1, 16),
        (82, 76, 6, 82, 6, 0, 0, 0, 0, 16),
        (35, 2),
        (4, 0, 57),
        (3,),
    ),
    ('sw', 'inorder', True): (
        (33, 29, 4, 14, 1, 19, 3, 0, 1, 16),
        (82, 76, 6, 82, 6, 0, 0, 0, 0, 16),
        (31, 2),
        (4, 0, 57),
        (3,),
    ),
    ('sw', 'ooo', False): (
        (35, 31, 4, 17, 1, 18, 3, 0, 1, 16),
        (68, 62, 6, 68, 6, 0, 0, 0, 0, 16),
        (33, 2),
        (3, 0, 43),
        (3,),
    ),
    ('sw', 'ooo', True): (
        (32, 28, 4, 14, 1, 18, 3, 0, 1, 16),
        (68, 62, 6, 68, 6, 0, 0, 0, 0, 16),
        (30, 2),
        (3, 0, 43),
        (3,),
    ),
}


@pytest.mark.parametrize("invisible", [False, True],
                         ids=["visible", "invisible"])
@pytest.mark.parametrize("uarch, engine", CORES,
                         ids=["-".join(core) for core in CORES])
@pytest.mark.parametrize("case", sorted(BODIES))
def test_wrong_path_memory(case, uarch, engine, invisible):
    assert measure(case, uarch, engine, invisible) == \
        GOLDEN[case, uarch, invisible]


if __name__ == "__main__":
    print("GOLDEN = {")
    for case_name in sorted(BODIES):
        for core in ("inorder", "ooo"):
            for hidden in (False, True):
                print(f"    ({case_name!r}, {core!r}, {hidden}): (")
                for part in measure(case_name, core, "step", hidden):
                    print(f"        {part},")
                print("    ),")
    print("}")
