// Seed-corpus generator for the fuzz harnesses (fuzz/).
//
// Writes small, grammar-valid seed inputs for each target into
// <out_dir>/{region_image,minivm,ipc_frame,oplog}/, plus the regression inputs
// under <out_dir>/regressions/<target>/ that pin each hardening fix the
// fuzz work forced (inputs that crashed — or violated a harness
// invariant — before the fix). Everything is a deterministic function of
// the harness schema/program, so regenerating after a schema change
// refreshes the corpus in place:
//   make_corpus fuzz/corpus
// Crash inputs found by live fuzzing are checked into regressions/ as
// files alongside the generated ones (never overwritten by this tool
// unless the name collides with a generated input).
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "db/api.hpp"
#include "db/controller_schema.hpp"
#include "db/disk.hpp"
#include "db/run_op_log.hpp"
#include "fuzz/harness.hpp"
#include "vm/program.hpp"

namespace {

bool write_file(const std::filesystem::path& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
    return false;
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

std::vector<std::uint8_t> as_bytes(const std::vector<std::byte>& in) {
  std::vector<std::uint8_t> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(in[i]);
  }
  return out;
}

bool region_seeds(const std::filesystem::path& dir) {
  using namespace wtc;
  // Pristine boot image: the canonical accepted input.
  auto db = db::make_controller_database(fuzz::harness_schema_params());
  const auto pristine = as_bytes(db::make_image_bytes(db->pristine()));
  if (!write_file(dir / "seed-pristine", pristine)) return false;

  // Live image with an intact semantic loop: one active Process ->
  // Connection -> Resource chain, every PK/FK wired, so the structural
  // AND semantic audit paths see realistic active state.
  const db::ControllerIds ids = db::resolve_controller_ids(db->schema());
  db::DbApi api(*db, []() { return sim::Time{0}; });
  api.init(1);
  db::RecordIndex p = 0, c = 0, r = 0;
  bool ok = api.alloc_rec(ids.process, db::kGroupActiveCalls, p) == db::Status::Ok &&
            api.alloc_rec(ids.connection, db::kGroupActiveCalls, c) == db::Status::Ok &&
            api.alloc_rec(ids.resource, db::kGroupActiveCalls, r) == db::Status::Ok;
  ok = ok &&
       api.write_fld(ids.process, p, ids.p_process_id, db::key_of(p)) == db::Status::Ok &&
       api.write_fld(ids.process, p, ids.p_connection_id, db::key_of(c)) == db::Status::Ok &&
       api.write_fld(ids.connection, c, ids.c_connection_id, db::key_of(c)) == db::Status::Ok &&
       api.write_fld(ids.connection, c, ids.c_channel_id, db::key_of(r)) == db::Status::Ok &&
       api.write_fld(ids.resource, r, ids.r_channel_id, db::key_of(r)) == db::Status::Ok &&
       api.write_fld(ids.resource, r, ids.r_process_id, db::key_of(p)) == db::Status::Ok;
  ok = ok && api.close() == db::Status::Ok;
  if (!ok) {
    std::fprintf(stderr, "building the active-state region seed failed\n");
    return false;
  }
  const auto active = as_bytes(db::make_image_bytes(db->region()));
  if (!write_file(dir / "seed-active", active)) return false;

  // A rejected envelope (bad magic) whose tail still drives phase 2's
  // in-region corruption ops: covers the reject-then-repair path.
  std::vector<std::uint8_t> rejected = pristine;
  rejected[0] ^= 0xFFu;
  if (!write_file(dir / "seed-rejected", rejected)) return false;
  return true;
}

bool minivm_seeds(const std::filesystem::path& dir) {
  using namespace wtc;
  auto db = db::make_controller_database(fuzz::harness_schema_params());
  const db::ControllerIds ids = db::resolve_controller_ids(db->schema());
  const vm::Program program = fuzz::harness_program(ids);

  auto overlay = [&](std::vector<std::uint8_t>& out, std::uint8_t at,
                     std::uint64_t word) {
    out.push_back(at);
    for (unsigned b = 0; b < 8; ++b) {
      out.push_back(static_cast<std::uint8_t>(word >> (8 * b)));
    }
  };

  // Pristine runs under both monitors.
  if (!write_file(dir / "seed-clean", {0x00})) return false;
  if (!write_file(dir / "seed-postcheck", {0x01})) return false;

  // Identity overlay: grammar-shaped but semantically pristine — teaches
  // the mutator the (index, word) group format.
  std::vector<std::uint8_t> identity = {0x00};
  overlay(identity, 5, program.text[5]);
  if (!write_file(dir / "seed-identity", identity)) return false;

  // A jump redirected out of bounds: the classic corrupted-CFI input the
  // attestation path must flag (PcOutOfBounds race included).
  std::uint32_t jmp_pc = 0;
  for (std::uint32_t pc = 0; pc < program.text.size(); ++pc) {
    if (vm::decode(program.text[pc]).op == vm::Opcode::Jmp) {
      jmp_pc = pc;
      break;
    }
  }
  vm::Instr jump = vm::decode(program.text[jmp_pc]);
  jump.imm = 100000;
  std::vector<std::uint8_t> oob = {0x01};
  overlay(oob, static_cast<std::uint8_t>(jmp_pc), vm::encode(jump));
  if (!write_file(dir / "seed-jump-oob", oob)) return false;
  return true;
}

bool ipc_seeds(const std::filesystem::path& dir) {
  // Byte streams in the harness op grammar (see fuzz/harness_ipc.cpp).
  // seed-basic: a data frame, its duplicate, a truncated frame, and a
  // genuine ack for the harness sender's channel.
  const std::vector<std::uint8_t> basic = {
      0, 1, 1, 1, 9, 9, 0,  // op0: frame from=1 chan=1 seq=1, no extra args
      0, 1, 1, 1, 9, 9, 0,  // op0: exact duplicate
      1, 1, 2, 5, 5,        // op1: truncated frame (2 of 4 framing args)
      3, 1, 1, 2, 5, 1,     // op3: ack, channel 5, seq 1 (consumable)
  };
  if (!write_file(dir / "seed-basic", basic)) return false;

  // seed-reorder: out-of-order seqs on one stream plus an arbitrary
  // message and a forged non-ack.
  const std::vector<std::uint8_t> reorder = {
      0, 2, 1, 3, 9, 9, 0,     // seq 3 first
      0, 2, 1, 1, 9, 9, 0,     // then seq 1
      0, 2, 1, 2, 9, 9, 0,     // then seq 2 (floor catches up)
      2, 0, 7, 7, 7, 7, 2, 9, 9,  // op2: arbitrary message, 2 args
      3, 1, 0, 0,              // op3: forged non-ack type, no args
  };
  return write_file(dir / "seed-reorder", reorder);
}

/// A small but structurally rich capture on the harness schema: two
/// identical call cycles plus one distinct one, so the dedup grouping in
/// the replay auditor sees duplicate AND unique chains, and mutations of
/// the seed land inside real lifecycle segments.
std::vector<std::uint8_t> oplog_capture() {
  using namespace wtc;
  auto db = db::make_controller_database(fuzz::harness_schema_params());
  const db::ControllerIds ids = db::resolve_controller_ids(db->schema());
  sim::Time now = 0;
  db::RunOpLog oplog;
  db::DbApi api(*db, [&now]() { return now; });
  api.set_audit_hooks(&oplog);
  api.init(1);
  for (int call = 0; call < 3; ++call) {
    now += 10;
    db::RecordIndex p = 0, c = 0;
    (void)api.alloc_rec(ids.process, db::kGroupActiveCalls, p);
    (void)api.alloc_rec(ids.connection, db::kGroupActiveCalls, c);
    (void)api.write_fld(ids.process, p, ids.p_process_id, db::key_of(p));
    (void)api.write_fld(ids.process, p, ids.p_connection_id, db::key_of(c));
    (void)api.write_fld(ids.connection, c, ids.c_connection_id, db::key_of(c));
    // The third call differs (distinct codec), the first two dedup.
    (void)api.write_fld(ids.connection, c, ids.c_codec, call == 2 ? 7 : 1);
    (void)api.move_rec(ids.connection, c, db::kGroupStableCalls);
    (void)api.free_rec(ids.connection, c);
    (void)api.free_rec(ids.process, p);
  }
  (void)api.close();
  return oplog.serialize();
}

bool oplog_seeds(const std::filesystem::path& dir) {
  using namespace wtc;
  const std::vector<std::uint8_t> capture = oplog_capture();
  if (!write_file(dir / "seed-capture", capture)) return false;

  // Header-only log: the smallest accepted input.
  std::vector<std::uint8_t> header(capture.begin(), capture.begin() + 8);
  if (!write_file(dir / "seed-empty", header)) return false;

  // A CRC-violating capture: last payload byte flipped — the canonical
  // rejected input, one mutation away from the accepted one.
  std::vector<std::uint8_t> rejected = capture;
  rejected.back() ^= 0xFFu;
  return write_file(dir / "seed-rejected", rejected);
}

bool regression_inputs(const std::filesystem::path& dir) {
  using namespace wtc;
  auto db = db::make_controller_database(fuzz::harness_schema_params());
  const db::ControllerIds ids = db::resolve_controller_ids(db->schema());

  // Fix: load_image bounds-checks the payload length against the
  // catalog-described region size BEFORE copying a byte. This valid-
  // envelope, half-sized image partially installed before the fix.
  const std::vector<std::byte> half(db->layout().region_size() / 2);
  if (!write_file(dir / "region_image" / "fix-undersized-payload",
                  as_bytes(db::make_image_bytes(half)))) {
    return false;
  }

  // Fix: install-time structural validation. A crc-correct image with one
  // corrupted record id tag installed as BOTH live region and recovery
  // source before the fix — every structural reload then faithfully
  // restored the corruption and the audit repair loop never converged.
  std::vector<std::byte> poisoned(db->pristine().begin(), db->pristine().end());
  const std::size_t tag_offset = db->layout().tables()[ids.process].offset;
  poisoned[tag_offset] ^= std::byte{0x5A};
  if (!write_file(dir / "region_image" / "fix-structural-poison",
                  as_bytes(db::make_image_bytes(poisoned)))) {
    return false;
  }

  // Fix: table/field id operands outside the schema's 16-bit id space trap
  // IllegalOperand instead of truncating. This overlay loads 0x10003 into
  // the table register; before the fix the DB opcodes aliased it onto
  // table 3 and operated on the wrong table.
  std::vector<std::uint8_t> alias = {0x00, 0x00};
  const std::uint64_t loadi_oob =
      vm::encode({vm::Opcode::LoadI, 1, 0, 0, 0x10003});
  for (unsigned b = 0; b < 8; ++b) {
    alias.push_back(static_cast<std::uint8_t>(loadi_oob >> (8 * b)));
  }
  if (!write_file(dir / "minivm" / "fix-id16-alias", alias)) return false;

  // Hardened path: a zero-arg data frame must be dropped as malformed,
  // not indexed for its framing words.
  if (!write_file(dir / "ipc_frame" / "fix-truncated-frame", {1, 0, 0})) {
    return false;
  }

  // Hardened path: a CRC-valid chunk whose event_count claims more events
  // than its payload holds must come back Truncated — the decoder stops at
  // the payload boundary instead of reading past it. (event_count lives at
  // byte 12 of the first chunk frame: header 8 + payload_len 4.)
  std::vector<std::uint8_t> overcount = oplog_capture();
  overcount[12] = static_cast<std::uint8_t>(overcount[12] + 1);
  if (!write_file(dir / "oplog" / "fix-event-overcount", overcount)) {
    return false;
  }

  // Fix: the decoder reserves its event storage from the chunk headers,
  // bounded by payload_len / 11 (the smallest encoded event). A CRC-valid
  // chunk claiming 0xFFFFFFFF events must come back Truncated without
  // reserving storage for the claimed count.
  std::vector<std::uint8_t> lying = oplog_capture();
  for (std::size_t b = 12; b < 16; ++b) {
    lying[b] = 0xFFu;
  }
  return write_file(dir / "oplog" / "fix-reserve-bound", lying);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <out_dir>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path root = argv[1];
  std::error_code ec;
  for (const char* sub : {"region_image", "minivm", "ipc_frame", "oplog",
                          "regressions/region_image", "regressions/minivm",
                          "regressions/ipc_frame", "regressions/oplog"}) {
    std::filesystem::create_directories(root / sub, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", (root / sub).string().c_str(),
                   ec.message().c_str());
      return 1;
    }
  }
  if (!region_seeds(root / "region_image") || !minivm_seeds(root / "minivm") ||
      !ipc_seeds(root / "ipc_frame") || !oplog_seeds(root / "oplog") ||
      !regression_inputs(root / "regressions")) {
    return 1;
  }
  std::printf("corpus written under %s\n", root.string().c_str());
  return 0;
}
