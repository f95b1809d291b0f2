#pragma once

#include <string>
#include <vector>

namespace pdc::notebook {

/// Kind of a notebook cell.
enum class CellKind { Markdown, Code };

/// One cell of a Colab/Jupyter-style notebook: source plus, for code cells,
/// the captured outputs of the last execution.
struct Cell {
  CellKind kind = CellKind::Code;
  std::string source;
  std::vector<std::string> outputs;  ///< one entry per output line
  int execution_count = 0;           ///< 0 = never executed
};

/// A notebook document: ordered cells plus a title, as authored for the
/// paper's "Distributed parallel programming patterns using mpi4py" Colab.
class Notebook {
 public:
  explicit Notebook(std::string title);

  /// Append a markdown (text) cell; returns its index in cells(). An index,
  /// not a reference: the next add may reallocate the cell vector.
  std::size_t add_markdown(std::string source);

  /// Append a code cell; returns its index in cells().
  std::size_t add_code(std::string source);

  [[nodiscard]] const std::string& title() const noexcept { return title_; }
  [[nodiscard]] std::vector<Cell>& cells() noexcept { return cells_; }
  [[nodiscard]] const std::vector<Cell>& cells() const noexcept {
    return cells_;
  }

  /// Number of code cells.
  [[nodiscard]] std::size_t code_cell_count() const;

  /// Render the notebook (sources + outputs) as plain text, in the visual
  /// spirit of the paper's Fig. 2.
  [[nodiscard]] std::string render() const;

 private:
  std::string title_;
  std::vector<Cell> cells_;
};

}  // namespace pdc::notebook
