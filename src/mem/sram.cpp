#include "mem/sram.hpp"

#include <algorithm>

namespace ouessant::mem {

/// Decodes a saved "data" field into a fresh page table. Zero words
/// write nothing, so the table holds exactly the pages with a non-zero
/// word.
class Sram::PageSink final : public snap::WordSink {
 public:
  explicit PageSink(const Sram& sram)
      : sram_(sram), pages_(sram.pages_.size()) {}

  void begin(u32 count) override {
    if (count != sram_.words_) {
      throw snap::SnapshotError("Sram " + sram_.name_ + ": snapshot holds " +
                                std::to_string(count) +
                                " words, memory has " +
                                std::to_string(sram_.words_));
    }
  }

  void run(std::size_t at, u32 n, u32 value) override {
    if (value == 0) return;
    const std::size_t end = at + n;
    for (std::size_t i = at; i < end;) {
      Page& page = pages_[i >> kPageShift];
      if (page == nullptr) page = std::make_unique<u32[]>(kPageWords);
      const std::size_t page_end = std::min(end, (i | (kPageWords - 1)) + 1);
      u32* first = page.get() + (i & (kPageWords - 1));
      std::fill(first, first + (page_end - i), value);
      i = page_end;
    }
  }

  void literal(std::size_t at, std::span<const u32> words) override {
    for (std::size_t k = 0; k < words.size(); ++k) {
      store_word(pages_, static_cast<u32>(at + k), words[k]);
    }
  }

  PageTable take() { return std::move(pages_); }

 private:
  const Sram& sram_;
  PageTable pages_;
};

Sram::Sram(std::string name, Addr base, u32 size_bytes, u32 read_wait,
           u32 write_wait)
    : name_(std::move(name)),
      base_(base),
      words_(size_bytes / 4),
      pages_((words_ + kPageWords - 1) / kPageWords),
      read_wait_(read_wait),
      write_wait_(write_wait) {
  if (size_bytes == 0 || size_bytes % 4 != 0) {
    throw ConfigError("Sram " + name_ + ": size must be a non-zero word multiple");
  }
  if (base % 4 != 0) {
    throw ConfigError("Sram " + name_ + ": base must be word aligned");
  }
}

u32 Sram::index_for(Addr addr, const char* what) const {
  if (addr < base_ || (addr - base_) / 4 >= words_) {
    throw SimError("Sram " + name_ + ": " + what + " out of range");
  }
  if (addr % 4 != 0) {
    throw SimError("Sram " + name_ + ": unaligned " + std::string(what));
  }
  return (addr - base_) / 4;
}

void Sram::store_word(PageTable& pages, u32 index, u32 value) {
  Page& page = pages[index >> kPageShift];
  if (page == nullptr) {
    if (value == 0) return;
    page = std::make_unique<u32[]>(kPageWords);
  }
  page[index & (kPageWords - 1)] = value;
}

bus::SlaveResponse Sram::read_word(Addr addr) {
  ++reads_;
  return {.data = word(index_for(addr, "read")), .wait_states = read_wait_};
}

u32 Sram::write_word(Addr addr, u32 data) {
  ++writes_;
  store_word(pages_, index_for(addr, "write"), data);
  return write_wait_;
}

u32 Sram::peek(Addr addr) const { return word(index_for(addr, "peek")); }

void Sram::poke(Addr addr, u32 data) {
  store_word(pages_, index_for(addr, "poke"), data);
}

void Sram::load(Addr addr, const std::vector<u32>& words) {
  for (std::size_t i = 0; i < words.size(); ++i) {
    poke(addr + static_cast<Addr>(i * 4), words[i]);
  }
}

std::vector<u32> Sram::dump(Addr addr, u32 words) const {
  std::vector<u32> out;
  out.reserve(words);
  for (u32 i = 0; i < words; ++i) out.push_back(peek(addr + i * 4));
  return out;
}

void Sram::fill(u32 value) {
  for (Page& page : pages_) {
    if (value == 0) {
      page.reset();
      continue;
    }
    if (page == nullptr) page = std::make_unique<u32[]>(kPageWords);
    std::fill(page.get(), page.get() + kPageWords, value);
  }
}

std::size_t Sram::resident_pages() const {
  return static_cast<std::size_t>(std::count_if(
      pages_.begin(), pages_.end(),
      [](const Page& page) { return page != nullptr; }));
}

void Sram::save_state(snap::StateWriter& w) const {
  w.write_string("name", name_);
  w.write_u64("reads", reads_);
  w.write_u64("writes", writes_);
  std::vector<const u32*> view(pages_.size());
  for (std::size_t k = 0; k < pages_.size(); ++k) view[k] = pages_[k].get();
  w.write_words32("data", snap::PagedWords{.pages = view,
                                           .page_shift = kPageShift,
                                           .count = words_});
}

Sram::SavedState Sram::read_state(snap::StateReader& r) const {
  const std::string saved = r.read_string("name");
  if (saved != name_) {
    throw snap::SnapshotError("Sram " + name_ + ": snapshot is for '" +
                              saved + "'");
  }
  SavedState s;
  s.reads = r.read_u64("reads");
  s.writes = r.read_u64("writes");
  PageSink sink(*this);
  r.read_words32("data", sink);
  s.pages = sink.take();
  return s;
}

void Sram::adopt(SavedState&& s) noexcept {
  reads_ = s.reads;
  writes_ = s.writes;
  pages_ = std::move(s.pages);
}

void Sram::restore_state(snap::StateReader& r) { adopt(read_state(r)); }

Rom::Rom(std::string name, Addr base, std::vector<u32> contents, u32 read_wait)
    : Sram(std::move(name), base, static_cast<u32>(contents.size() * 4),
           read_wait, 0) {
  load(base, contents);
}

u32 Rom::write_word(Addr addr, u32) {
  throw SimError("Rom " + name_ + ": write to read-only memory at 0x" +
                 std::to_string(addr));
}

}  // namespace ouessant::mem
