#include "notebook/notebook.hpp"

#include "support/error.hpp"
#include "support/strings.hpp"

namespace pdc::notebook {

Notebook::Notebook(std::string title) : title_(std::move(title)) {
  if (title_.empty()) throw InvalidArgument("Notebook: title required");
}

std::size_t Notebook::add_markdown(std::string source) {
  cells_.push_back(Cell{CellKind::Markdown, std::move(source), {}, 0});
  return cells_.size() - 1;
}

std::size_t Notebook::add_code(std::string source) {
  cells_.push_back(Cell{CellKind::Code, std::move(source), {}, 0});
  return cells_.size() - 1;
}

std::size_t Notebook::code_cell_count() const {
  std::size_t count = 0;
  for (const auto& cell : cells_) {
    if (cell.kind == CellKind::Code) ++count;
  }
  return count;
}

std::string Notebook::render() const {
  std::string out = "### " + title_ + " ###\n\n";
  for (const auto& cell : cells_) {
    if (cell.kind == CellKind::Markdown) {
      out += cell.source + "\n\n";
      continue;
    }
    const std::string tag =
        cell.execution_count > 0 ? std::to_string(cell.execution_count) : " ";
    out += "[" + tag + "]: ";
    // Indent continuation lines under the prompt.
    bool first = true;
    for (const auto& line : strings::split(cell.source, '\n')) {
      if (!first) out += "      ";
      out += line + "\n";
      first = false;
    }
    for (const auto& line : cell.outputs) {
      out += "  > " + line + "\n";
    }
    out += "\n";
  }
  return out;
}

}  // namespace pdc::notebook
