//===- Workloads.cpp - SPEC95-shaped synthetic workloads -------------------===//

#include "src/workload/Workloads.h"

#include "src/isa/Assembler.h"
#include "src/support/Rng.h"
#include "src/support/StringUtils.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace facile;
using namespace facile::workload;

const std::vector<WorkloadSpec> &workload::spec95Suite() {
  // Name, FP, kernels, blocks/kernel, insts/block, dep-branch %, inner
  // iters, data KW, stride, seed. Integer codes: many kernels, high control
  // entropy. FP codes: few, regular kernels with long inner loops. fpppp is
  // famous for enormous basic blocks; compress is tiny.
  static const std::vector<WorkloadSpec> Suite = {
      {"099.go", false, 80, 6, 6, 55, 12, 256, 3, 0x60},
      {"124.m88ksim", false, 30, 5, 6, 30, 16, 64, 1, 0x61},
      {"126.gcc", false, 120, 6, 7, 50, 10, 512, 5, 0x62},
      {"129.compress", false, 6, 4, 5, 40, 24, 64, 1, 0x63},
      {"130.li", false, 20, 4, 5, 35, 12, 32, 1, 0x64},
      {"132.ijpeg", false, 40, 5, 8, 25, 32, 512, 1, 0x65},
      {"134.perl", false, 60, 5, 6, 45, 12, 128, 2, 0x66},
      {"147.vortex", false, 70, 5, 6, 30, 16, 512, 4, 0x67},
      {"101.tomcatv", true, 4, 4, 10, 5, 64, 256, 1, 0x70},
      {"102.swim", true, 6, 4, 10, 5, 64, 256, 1, 0x71},
      {"103.su2cor", true, 10, 4, 9, 10, 48, 128, 1, 0x72},
      {"104.hydro2d", true, 10, 4, 9, 8, 48, 128, 1, 0x73},
      {"107.mgrid", true, 3, 3, 12, 2, 128, 256, 1, 0x74},
      {"110.applu", true, 8, 4, 10, 5, 64, 128, 1, 0x75},
      {"125.turb3d", true, 6, 4, 10, 4, 64, 128, 1, 0x76},
      {"141.apsi", true, 12, 4, 9, 10, 48, 128, 1, 0x77},
      {"145.fpppp", true, 2, 4, 60, 3, 48, 64, 1, 0x78},
      {"146.wave5", true, 8, 4, 10, 6, 64, 256, 1, 0x79},
  };
  return Suite;
}

const WorkloadSpec *workload::findSpec(const std::string &Name) {
  for (const WorkloadSpec &Spec : spec95Suite()) {
    if (Spec.Name == Name)
      return &Spec;
    // Accept the bare name after the numeric prefix ("gcc" for "126.gcc").
    size_t Dot = Spec.Name.find('.');
    if (Dot != std::string::npos && Spec.Name.substr(Dot + 1) == Name)
      return &Spec;
  }
  return nullptr;
}

namespace {

/// Emits the body of one straight-line ALU block operating on scratch
/// registers r4..r10, with r4 carrying the loaded data value.
void emitAluBlock(std::string &Out, Rng &R, unsigned Insts, bool FpStyle) {
  for (unsigned I = 0; I != Insts; ++I) {
    unsigned Rd = 4 + static_cast<unsigned>(R.below(7));
    unsigned Rs1 = 4 + static_cast<unsigned>(R.below(7));
    unsigned Rs2 = 4 + static_cast<unsigned>(R.below(7));
    // FP-style codes are multiply/add heavy; integer codes mix logic ops.
    unsigned Pick = static_cast<unsigned>(R.below(100));
    if (FpStyle) {
      if (Pick < 35)
        Out += strFormat("  mul r%u, r%u, r%u\n", Rd, Rs1, Rs2);
      else if (Pick < 80)
        Out += strFormat("  add r%u, r%u, r%u\n", Rd, Rs1, Rs2);
      else if (Pick < 90)
        Out += strFormat("  sub r%u, r%u, r%u\n", Rd, Rs1, Rs2);
      else
        Out += strFormat("  srai r%u, r%u, %u\n", Rd, Rs1,
                         static_cast<unsigned>(R.below(8)) + 1);
    } else {
      if (Pick < 30)
        Out += strFormat("  add r%u, r%u, r%u\n", Rd, Rs1, Rs2);
      else if (Pick < 45)
        Out += strFormat("  xor r%u, r%u, r%u\n", Rd, Rs1, Rs2);
      else if (Pick < 60)
        Out += strFormat("  and r%u, r%u, r%u\n", Rd, Rs1, Rs2);
      else if (Pick < 72)
        Out += strFormat("  or r%u, r%u, r%u\n", Rd, Rs1, Rs2);
      else if (Pick < 82)
        Out += strFormat("  addi r%u, r%u, %u\n", Rd, Rs1,
                         static_cast<unsigned>(R.below(256)));
      else if (Pick < 92)
        Out += strFormat("  slli r%u, r%u, %u\n", Rd, Rs1,
                         static_cast<unsigned>(R.below(4)) + 1);
      else
        Out += strFormat("  mul r%u, r%u, r%u\n", Rd, Rs1, Rs2);
    }
  }
}

} // namespace

std::string workload::generateAsm(const WorkloadSpec &Spec,
                                  uint64_t OuterIters) {
  assert(OuterIters > 0 && OuterIters <= 0x7fffffffULL &&
         "outer iteration count must fit a register");
  Rng R(Spec.Seed * 0x9e3779b97f4a7c15ULL + 1);
  std::string Out;
  Out += strFormat("# synthetic workload '%s'\n", Spec.Name.c_str());

  uint32_t DataWords = Spec.DataKWords * 1024;
  uint32_t ChunkWords = DataWords / Spec.NumKernels;
  if (ChunkWords == 0)
    ChunkWords = 1;

  // Register conventions:
  //   r1..r15  kernel scratch (r1 inner counter, r2 pointer, r3 limit,
  //            r4..r10 data scratch, r11/r12 helpers)
  //   r18      LCG state,   r19 data base,   r20 outer counter
  //   r21/r22  driver scratch
  Out += ".text\n";
  Out += "main:\n";
  Out += "  la r19, wdata\n";
  Out += strFormat("  li r18, %u\n",
                   static_cast<uint32_t>(Spec.Seed * 2654435761u + 12345u));
  // Fill the data segment with LCG values so data-dependent branches see
  // pseudo-random data without shipping a huge image. The fill is capped:
  // beyond the cap, kernels read zeros initially and mix in stored results
  // as they run, keeping start-up cost bounded for large footprints.
  uint32_t InitWords = DataWords < 32768 ? DataWords : 32768;
  Out += strFormat("  li r21, %u\n", InitWords);
  Out += "  mv r22, r19\n";
  Out += "  li r11, 1103515245\n";
  Out += "init_loop:\n";
  Out += "  mul r18, r18, r11\n";
  Out += "  addi r18, r18, 12345\n";
  Out += "  st r18, 0(r22)\n";
  Out += "  addi r22, r22, 4\n";
  Out += "  addi r21, r21, -1\n";
  Out += "  bne r21, r0, init_loop\n";

  Out += strFormat("  li r20, %llu\n",
                   static_cast<unsigned long long>(OuterIters));
  Out += "outer_loop:\n";
  for (unsigned K = 0; K != Spec.NumKernels; ++K)
    Out += strFormat("  call kernel%u\n", K);
  Out += "  addi r20, r20, -1\n";
  Out += "  bne r20, r0, outer_loop\n";
  Out += "  halt\n\n";

  for (unsigned K = 0; K != Spec.NumKernels; ++K) {
    bool FpStyle = Spec.FloatingPoint;
    uint32_t ChunkBase = K * ChunkWords * 4;
    uint32_t StrideBytes = Spec.StrideWords * 4;

    Out += strFormat("kernel%u:\n", K);
    Out += strFormat("  li r1, %u\n", Spec.InnerIters);
    Out += strFormat("  li r11, %u\n", ChunkBase);
    Out += "  add r2, r19, r11\n";
    Out += strFormat("  li r11, %u\n", ChunkBase + ChunkWords * 4);
    Out += "  add r3, r19, r11\n";
    Out += strFormat("kloop%u:\n", K);
    Out += "  ld r4, 0(r2)\n";
    // r13 holds the unmodified loaded value: data-dependent guards test it
    // and the kernel stores it back unchanged, so per-address branch
    // behaviour is stable across passes (like real hot loops) while still
    // varying along the walk.
    Out += "  mv r13, r4\n";
    for (unsigned B = 0; B != Spec.BlocksPerKernel; ++B) {
      bool Skippable = R.below(100) < Spec.DepBranchPct;
      if (Skippable) {
        // Real branch outcomes are strongly correlated; fully random
        // directions would overstate pipeline-state diversity. Most
        // guards test a low bit of the loop counter (periodic, like loop
        // and phase structure); a quarter test loaded data (irregular).
        if (R.below(4) == 0) {
          unsigned Bit = 5 + static_cast<unsigned>(R.below(10));
          Out += strFormat("  srli r12, r13, %u\n", Bit);
        } else {
          unsigned Bit = static_cast<unsigned>(R.below(3));
          Out += strFormat("  srli r12, r1, %u\n", Bit);
        }
        Out += "  andi r12, r12, 1\n";
        Out += strFormat("  beq r12, r0, kskip%u_%u\n", K, B);
      }
      emitAluBlock(Out, R, Spec.InstsPerBlock, FpStyle);
      if (Skippable)
        Out += strFormat("kskip%u_%u:\n", K, B);
    }
    // Store the value back, advance with stride, wrap at the chunk limit.
    Out += "  st r13, 0(r2)\n";
    Out += strFormat("  addi r2, r2, %u\n", StrideBytes);
    Out += strFormat("  blt r2, r3, knw%u\n", K);
    Out += strFormat("  li r11, %u\n", ChunkWords * 4);
    Out += "  sub r2, r2, r11\n";
    Out += strFormat("knw%u:\n", K);
    Out += "  addi r1, r1, -1\n";
    Out += strFormat("  bne r1, r0, kloop%u\n", K);
    Out += "  ret\n\n";
  }

  Out += ".data\n";
  Out += strFormat("wdata: .space %u\n", DataWords * 4);
  return Out;
}

isa::TargetImage workload::generate(const WorkloadSpec &Spec,
                                    uint64_t OuterIters) {
  std::string Error;
  std::optional<isa::TargetImage> Image =
      isa::assemble(generateAsm(Spec, OuterIters), &Error);
  if (!Image) {
    std::fprintf(stderr, "workload generation bug for %s: %s\n",
                 Spec.Name.c_str(), Error.c_str());
    std::abort();
  }
  return *std::move(Image);
}
