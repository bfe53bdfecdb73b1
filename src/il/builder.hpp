// Fluent construction of IL kernels with automatic virtual-register
// numbering. The suite's kernel generators (paper Figs. 3, 5, 6) are
// written against this interface.
#pragma once

#include "il/il.hpp"

namespace amdmb::il {

class Builder {
 public:
  Builder(std::string name, Signature sig);

  /// Fetch input `input_index` (SAMPLE or uav_load per the signature's
  /// read path); returns the virtual register holding the value.
  unsigned Fetch(unsigned input_index);

  /// Two-source ALU op; returns the defined virtual register.
  unsigned Alu(Opcode op, Operand a, Operand b);
  /// Single-source ALU op (mov/rcp/sin).
  unsigned Alu1(Opcode op, Operand a);
  /// dst = a * b + c.
  unsigned Mad(Operand a, Operand b, Operand c);

  unsigned Add(Operand a, Operand b) { return Alu(Opcode::kAdd, a, b); }
  unsigned Mul(Operand a, Operand b) { return Alu(Opcode::kMul, a, b); }

  /// Write virtual register `value` to output `output_index` (EXPORT or
  /// uav_store per the signature's write path).
  void Write(unsigned output_index, unsigned value);

  /// Forces an ALU clause boundary at this point (paper Fig. 5 control).
  void ClauseBreak();

  /// Finalizes and returns the kernel. The builder must not be reused.
  Kernel Build() &&;

 private:
  unsigned Define(Inst inst);

  Kernel kernel_;
  unsigned next_reg_ = 0;
};

}  // namespace amdmb::il
