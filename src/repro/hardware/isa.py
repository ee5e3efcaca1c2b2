"""Instruction-level trace of the PIM controller.

The controller is "the instruction interface between software and
hardware" (paper Fig. 4b). This module defines the small instruction
set that interface needs and a recorder that captures the instruction
stream a workload issues — useful for debugging dataflow, for checking
that the offline/online split behaves (no PROGRAM instructions during
the online phase), and for replaying a trace against a fresh device.

Instruction set:

=============  ========================================================
``PROGRAM``    write an operand matrix onto crossbars (offline stage)
``STORE``      write pre-computed side data into the memory array
``COMPUTE``    fire one dot-product wave (one query vector)
``READBUF``    drain wave results from the buffer array to the host
``RESET``      erase a programmed matrix (re-programming; wears cells)
=============  ========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import OperandError
from repro.hardware.controller import PIMController
from repro.hardware.pim_array import PIMQueryResult

OPCODES = ("PROGRAM", "STORE", "COMPUTE", "READBUF", "RESET")


@dataclass(frozen=True)
class Instruction:
    """One controller instruction."""

    opcode: str
    target: str
    payload_bytes: float = 0.0
    detail: str = ""

    def __post_init__(self) -> None:
        if self.opcode not in OPCODES:
            raise OperandError(
                f"unknown opcode {self.opcode!r}; one of {OPCODES}"
            )


@dataclass
class InstructionTrace:
    """An ordered instruction stream with summary queries."""

    instructions: list[Instruction] = field(default_factory=list)

    def append(self, instruction: Instruction) -> None:
        self.instructions.append(instruction)

    def __len__(self) -> int:
        return len(self.instructions)

    def count(self, opcode: str) -> int:
        """Instructions of one opcode."""
        return sum(1 for i in self.instructions if i.opcode == opcode)

    def payload_bytes(self, opcode: str | None = None) -> float:
        """Total payload moved (optionally for one opcode)."""
        return sum(
            i.payload_bytes
            for i in self.instructions
            if opcode is None or i.opcode == opcode
        )

    def offline_online_split(self) -> tuple[int, int]:
        """(index of the first online instruction, total length).

        The offline stage is the PROGRAM/STORE prefix; the first
        COMPUTE/READBUF marks the online stage.
        """
        for idx, instruction in enumerate(self.instructions):
            if instruction.opcode in ("COMPUTE", "READBUF"):
                return idx, len(self.instructions)
        return len(self.instructions), len(self.instructions)

    def is_well_formed(self) -> bool:
        """Every COMPUTE targets a previously programmed (live) matrix
        and is followed eventually by a READBUF of the same target."""
        live: set[str] = set()
        pending: list[str] = []
        for instruction in self.instructions:
            if instruction.opcode == "PROGRAM":
                live.add(instruction.target)
            elif instruction.opcode == "RESET":
                live.discard(instruction.target)
            elif instruction.opcode == "COMPUTE":
                if instruction.target not in live:
                    return False
                pending.append(instruction.target)
            elif instruction.opcode == "READBUF":
                if not pending or pending[0] != instruction.target:
                    return False
                pending.pop(0)
        return not pending


class TracingPIMController(PIMController):
    """A controller that records its instruction stream.

    Drop-in for :class:`~repro.hardware.controller.PIMController`; every
    bound/algorithm built on it leaves a full trace in :attr:`trace`.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.trace = InstructionTrace()

    def program(self, name, matrix, side_data_bytes: float = 0.0):
        receipt = super().program(name, matrix, side_data_bytes)
        matrix = np.asarray(matrix)
        self.trace.append(
            Instruction(
                "PROGRAM",
                name,
                payload_bytes=float(matrix.size)
                * self.pim.config.operand_bits
                / 8.0,
                detail=f"{matrix.shape[0]}x{matrix.shape[1]}",
            )
        )
        if side_data_bytes:
            self.trace.append(
                Instruction("STORE", name, payload_bytes=side_data_bytes)
            )
        return receipt

    def _record_wave(self, name: str, result: PIMQueryResult, detail: str):
        """Append one dispatch's COMPUTE + READBUF pair; returns ``result``."""
        self.trace.append(Instruction("COMPUTE", name, detail=detail))
        self.trace.append(
            Instruction(
                "READBUF",
                name,
                payload_bytes=float(result.values.size)
                * self.pim.config.accumulator_bits
                / 8.0,
            )
        )
        return result

    def dot_products(self, name, query, input_bits=None):
        result = super().dot_products(name, query, input_bits=input_bits)
        return self._record_wave(name, result, "1 wave(s)")

    def dot_products_many(self, name, queries, input_bits=None):
        result = super().dot_products_many(
            name, queries, input_bits=input_bits
        )
        n = len(result.values)
        return self._record_wave(name, result, f"{n} wave(s)")

    def dot_products_batch(self, name, queries, input_bits=None):
        result = super().dot_products_batch(
            name, queries, input_bits=input_bits
        )
        n = len(result.values)
        return self._record_wave(name, result, f"batch of {n}")

    def reset_matrix(self, name: str) -> None:
        """Erase a matrix and record the RESET."""
        self.pim.reset_matrix(name)
        self.trace.append(Instruction("RESET", name))


def replay(
    trace: InstructionTrace,
    matrices: dict[str, np.ndarray],
    queries: dict[str, list[np.ndarray]],
    controller: PIMController,
) -> list[np.ndarray]:
    """Re-execute a trace against a fresh controller.

    ``matrices`` maps PROGRAM targets to their operand matrices and
    ``queries`` maps COMPUTE targets to the query vectors in issue
    order. Returns the READBUF payloads (wave results) in order —
    replaying a trace on an identical device must reproduce the exact
    same results, which tests assert.
    """
    results: list[np.ndarray] = []
    query_cursor = {name: 0 for name in queries}
    for instruction in trace.instructions:
        if instruction.opcode == "PROGRAM":
            controller.program(
                instruction.target, matrices[instruction.target]
            )
        elif instruction.opcode == "COMPUTE":
            name = instruction.target
            cursor = query_cursor[name]
            result = controller.dot_products(name, queries[name][cursor])
            query_cursor[name] += 1
            results.append(result.values)
        elif instruction.opcode == "RESET":
            controller.pim.reset_matrix(instruction.target)
    return results
